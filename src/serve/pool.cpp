#include "serve/pool.hpp"

#include <atomic>
#include <utility>

#include "obs/trace.hpp"
#include "solver/amg.hpp"

namespace parmis::serve {

std::unique_ptr<solver::Preconditioner> PrecCache::take(const PrecKey& key) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].key == key) {
      std::unique_ptr<solver::Preconditioner> out = std::move(slots_[i].prec);
      slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(i));
      return out;
    }
  }
  return nullptr;
}

void PrecCache::put(const PrecKey& key, std::unique_ptr<solver::Preconditioner> p) {
  if (!p || capacity_ == 0) return;
  // Replace an existing slot for the same key (shouldn't happen under the
  // take/put discipline, but harmless), else append or evict the LRU.
  for (Slot& s : slots_) {
    if (s.key == key) {
      s.prec = std::move(p);
      s.last_used = ++clock_;
      return;
    }
  }
  if (slots_.size() >= capacity_) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < slots_.size(); ++i) {
      if (slots_[i].last_used < slots_[victim].last_used) victim = i;
    }
    slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(victim));
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  Slot s;
  s.key = key;
  s.prec = std::move(p);
  s.last_used = ++clock_;
  slots_.push_back(std::move(s));
}

HandlePool::Entry::Entry(const Config& cfg)
    : handle(cfg.solver, cfg.prec, cfg.ctx), cache(cfg.cache_capacity) {
  handle.prec_options() = cfg.prec_options;
  if (!cfg.fallback.empty()) handle.set_fallback(cfg.fallback);
}

HandlePool::HandlePool(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.size == 0) cfg_.size = 1;
  entries_.reserve(cfg_.size);
  free_.reserve(cfg_.size);
  for (std::size_t i = 0; i < cfg_.size; ++i) {
    entries_.push_back(std::make_unique<Entry>(cfg_));
    free_.push_back(entries_.back().get());
  }
}

HandlePool::Lease HandlePool::acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !free_.empty(); });
  Entry* e = free_.back();
  free_.pop_back();
  ++acquires_;
  return Lease(this, e);
}

void HandlePool::release_entry(Entry* e) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(e);
  }
  cv_.notify_one();
}

void HandlePool::Lease::release() {
  if (pool_ && entry_) pool_->release_entry(entry_);
  pool_ = nullptr;
  entry_ = nullptr;
}

void HandlePool::ensure(Entry& entry, const PrecKey& key, const graph::CrsMatrix& a,
                        const std::vector<multilevel::OperatorLevel>* levels) {
  if (cfg_.prec == "none") return;  // nothing to cache for the identity
  if (entry.has_current && entry.current == key) {
    // The handle's own per-matrix cache does the rest: same key → same
    // matrix address → warm, no rebuild.
    entry.warm_hits.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Park the displaced setup before installing the new one.
  if (entry.has_current) {
    entry.cache.put(entry.current, entry.handle.release_preconditioner());
    entry.has_current = false;
  }
  if (std::unique_ptr<solver::Preconditioner> parked = entry.cache.take(key)) {
    entry.handle.adopt_preconditioner(std::move(parked), a);
    entry.cache_hits.fetch_add(1, std::memory_order_relaxed);
  } else if (cfg_.prec == "amg" && levels && !levels->empty()) {
    // Snapshot economy: a published level stack turns a cache miss into a
    // copy of arrays instead of aggregation + triple products.
    PARMIS_SPAN("serve.adopt_levels");
    solver::AmgOptions amg_opts = cfg_.prec_options.amg;
    if (!amg_opts.hierarchy.ctx) amg_opts.hierarchy.ctx = cfg_.ctx;
    auto h = std::make_unique<solver::AmgHierarchy>(
        solver::AmgHierarchy::adopt(*levels, amg_opts));
    entry.handle.adopt_preconditioner(std::move(h), a);
    entry.level_adoptions.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Full registry build on the next solve()/setup(); count it here so
    // the telemetry distinguishes builds from adoptions.
    entry.handle.invalidate();
    entry.handle.setup(a);
    entry.prec_builds.fetch_add(1, std::memory_order_relaxed);
  }
  entry.current = key;
  entry.has_current = true;
}

PoolStats HandlePool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PoolStats s;
  s.acquires = acquires_;
  for (const std::unique_ptr<Entry>& e : entries_) {
    s.warm_hits += e->warm_hits.load(std::memory_order_relaxed);
    s.cache_hits += e->cache_hits.load(std::memory_order_relaxed);
    s.level_adoptions += e->level_adoptions.load(std::memory_order_relaxed);
    s.prec_builds += e->prec_builds.load(std::memory_order_relaxed);
    s.evictions += e->cache.evictions();
  }
  return s;
}

}  // namespace parmis::serve
