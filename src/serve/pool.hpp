#pragma once
/// \file pool.hpp
/// \brief `serve::HandlePool` — a thread-safe pool of warm `SolveHandle`s
/// plus a per-entry LRU cache of preconditioner setups keyed by matrix
/// identity (the PR 4 follow-up), for multi-tenant serving.
///
/// Design: the pool hands out whole *entries* (handle + caches + request
/// scratch) under an RAII `Lease`; only acquire/release touch the pool
/// mutex, so concurrent solves run with zero shared mutable state — each
/// leased entry is exactly the "one handle per thread" the `SolveHandle`
/// contract requires, and the per-handle zero-allocation warm contract
/// survives concurrency untouched. Because every solve is deterministic
/// given (matrix values, b, x0, configuration), results are bit-identical
/// to a single-threaded run regardless of which entry serves which
/// request.
///
/// Multi-tenant economics: a handle caches one preconditioner setup (for
/// the matrix it last served). Traffic that alternates between tenants —
/// different matrices, or different epochs of the same matrix — would
/// rebuild on every switch. Each entry therefore parks displaced setups
/// in a small LRU keyed by `PrecKey` (epoch + tenant id): switching back
/// re-adopts the parked setup via
/// `SolveHandle::adopt_preconditioner` with zero rebuild cost. AMG setups
/// additionally short-cut *misses*: when the serving state carries a
/// published hierarchy level stack, a miss adopts (copies) the levels via
/// `AmgHierarchy::adopt` instead of re-running aggregation + SpGEMM.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "multilevel/hierarchy.hpp"
#include "parallel/context.hpp"
#include "solver/handle.hpp"

namespace parmis::serve {

/// Identity of one preconditioner setup: which tenant's matrix, at which
/// publication epoch. Two keys compare equal iff the setups are
/// interchangeable (the pool guarantees one matrix per key).
struct PrecKey {
  std::uint64_t epoch = 0;
  std::string tenant;  ///< "" for the single-tenant default

  [[nodiscard]] bool operator==(const PrecKey& o) const {
    return epoch == o.epoch && tenant == o.tenant;
  }
};

/// Per-entry LRU of parked preconditioner setups. Not thread-safe — it is
/// private to one pool entry and the entry is exclusively leased.
class PrecCache {
 public:
  explicit PrecCache(std::size_t capacity) : capacity_(capacity) {}

  /// Remove and return the setup parked under `key` (null on miss).
  [[nodiscard]] std::unique_ptr<solver::Preconditioner> take(const PrecKey& key);

  /// Park a setup under `key`, evicting the least-recently-used entry when
  /// full. Null or zero-capacity is a no-op.
  void put(const PrecKey& key, std::unique_ptr<solver::Preconditioner> p);

  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    PrecKey key;
    std::unique_ptr<solver::Preconditioner> prec;
    std::uint64_t last_used = 0;
  };
  std::vector<Slot> slots_;
  std::size_t capacity_;
  std::uint64_t clock_ = 0;
  /// Atomic only so `HandlePool::stats()` can aggregate while the owning
  /// entry is leased to another thread; all writes are the lease holder's.
  std::atomic<std::uint64_t> evictions_{0};
};

/// Aggregated pool telemetry (summed over entries under the pool mutex).
struct PoolStats {
  std::uint64_t acquires = 0;        ///< leases handed out
  std::uint64_t warm_hits = 0;       ///< ensure(): setup already installed
  std::uint64_t cache_hits = 0;      ///< ensure(): re-adopted from the LRU
  std::uint64_t level_adoptions = 0; ///< ensure(): AMG built by adopting published levels
  std::uint64_t prec_builds = 0;     ///< ensure(): full registry build
  std::uint64_t evictions = 0;       ///< LRU entries displaced
};

class HandlePool {
 public:
  struct Config {
    std::string solver = "cg";
    std::string prec = "none";
    /// Optional fallback-chain spec (`resilience::FallbackPolicy` grammar,
    /// `on:` clauses included) installed on every entry's handle.
    std::string fallback;
    solver::PrecOptions prec_options;
    /// Context each entry's handle runs under. Serial by default: worker
    /// threads are the parallelism axis in a serving pool; nesting an
    /// OpenMP team under every worker oversubscribes. Determinism makes
    /// this a pure performance knob.
    Context ctx = Context::serial();
    std::size_t size = 4;            ///< concurrent leases
    std::size_t cache_capacity = 4;  ///< parked setups per entry
  };

  /// One pool entry: the handle plus everything a request needs, all
  /// exclusively owned by the current lease.
  struct Entry {
    explicit Entry(const Config& cfg);

    solver::SolveHandle handle;
    PrecCache cache;
    PrecKey current;           ///< identity of the setup installed in the handle
    bool has_current = false;
    std::vector<scalar_t> b;   ///< per-request right-hand side (reused, warm)
    std::vector<scalar_t> x;   ///< per-request solution (reused, warm)
    std::vector<scalar_t> bm;  ///< batched-wave rhs multi-vector (reused, warm)
    std::vector<scalar_t> xm;  ///< batched-wave solution multi-vector (reused, warm)
    // Atomic only so `stats()` can aggregate concurrently with a lease;
    // each counter has exactly one writer (the lease holder).
    std::atomic<std::uint64_t> warm_hits{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> level_adoptions{0};
    std::atomic<std::uint64_t> prec_builds{0};
  };

  explicit HandlePool(Config cfg);

  /// RAII lease of one entry: blocks until an entry is free, returns it on
  /// destruction. Movable.
  class Lease {
   public:
    Lease(HandlePool* pool, Entry* entry) : pool_(pool), entry_(entry) {}
    ~Lease() { release(); }
    Lease(Lease&& o) noexcept : pool_(o.pool_), entry_(o.entry_) {
      o.pool_ = nullptr;
      o.entry_ = nullptr;
    }
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        release();
        pool_ = o.pool_;
        entry_ = o.entry_;
        o.pool_ = nullptr;
        o.entry_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    [[nodiscard]] Entry& entry() { return *entry_; }
    [[nodiscard]] solver::SolveHandle& handle() { return entry_->handle; }

   private:
    void release();
    HandlePool* pool_;
    Entry* entry_;
  };

  [[nodiscard]] Lease acquire();

  /// Make `entry.handle` warm for matrix `a` under identity `key`:
  ///   1. `key` already installed → no-op (warm hit);
  ///   2. a setup parked under `key` in the entry's LRU → re-adopted, zero
  ///      rebuild (cache hit); the displaced setup is parked in its place;
  ///   3. otherwise built — by `AmgHierarchy::adopt` of `levels` when the
  ///      configuration is "amg" and the caller published a level stack
  ///      (copies arrays, skips aggregation + SpGEMM), else via the
  ///      registry (`preconditioners().find(prec).make`).
  /// `a` must stay alive (same address) while any setup keyed `key` can be
  /// served — the serving runtime guarantees this by keeping published
  /// states alive as long as their epoch is reachable.
  void ensure(Entry& entry, const PrecKey& key, const graph::CrsMatrix& a,
              const std::vector<multilevel::OperatorLevel>* levels = nullptr);

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Aggregated counters. Safe to call while entries are leased (the
  /// per-entry counters are relaxed atomics with one writer each).
  [[nodiscard]] PoolStats stats() const;

 private:
  friend class Lease;
  void release_entry(Entry* e);

  Config cfg_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::vector<Entry*> free_;
  std::uint64_t acquires_ = 0;
};

}  // namespace parmis::serve
