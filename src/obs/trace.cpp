#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

namespace parmis::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

std::atomic<int> g_chunk_sample_every{0};
std::atomic<std::uint64_t> g_chunk_loop_counter{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

/// One recorded event. `dur_ns == -1` marks a counter sample.
struct Event {
  const char* name;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  const char* arg_name[2];
  std::int64_t arg_val[2];
  std::uint8_t nargs;
};

constexpr std::size_t kBlockEvents = 4096;
/// Hard per-thread cap (blocks * events ≈ 2M events ≈ 160 MB across 16
/// threads worst case); past it further events are discarded.
constexpr std::size_t kMaxBlocks = 512;

struct Block {
  Event events[kBlockEvents];
};

/// Append-only per-thread buffer. The owning thread is the only writer:
/// it installs blocks with release stores and publishes each event with a
/// release store of `count`. Readers (collect/summarize, called between
/// parallel regions) acquire `count` then acquire the block pointers, so
/// every event below the loaded count is fully visible — no locks on the
/// record path, and TSan sees the release/acquire edges.
class EventBuffer {
 public:
  void record(const Event& e) {
    const std::uint64_t n = count_.load(std::memory_order_relaxed);
    const std::size_t block_idx = static_cast<std::size_t>(n / kBlockEvents);
    if (block_idx >= kMaxBlocks) return;
    Block* b = blocks_[block_idx].load(std::memory_order_relaxed);
    if (!b) {
      b = new Block;
      g_allocated_bytes.fetch_add(sizeof(Block), std::memory_order_relaxed);
      blocks_[block_idx].store(b, std::memory_order_release);
    }
    b->events[n % kBlockEvents] = e;
    count_.store(n + 1, std::memory_order_release);
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_acquire);
  }

  /// Read event `i` (must be < count()).
  [[nodiscard]] const Event& at(std::uint64_t i) const {
    Block* b = blocks_[static_cast<std::size_t>(i / kBlockEvents)].load(
        std::memory_order_acquire);
    return b->events[i % kBlockEvents];
  }

  /// Reset the count, keeping allocated blocks for reuse. Only safe while
  /// the owner thread is not recording (same contract as the readers).
  void clear() {
    count_.store(0, std::memory_order_release);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<Block*> blocks_[kMaxBlocks] = {};
};

/// Global registry of every thread's buffer. Buffers are created on a
/// thread's first traced event (a one-time mutex hit) and never destroyed:
/// OpenMP reuses its worker threads, and keeping buffers alive makes the
/// thread_local fast-path pointer safe for the process lifetime.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<EventBuffer>> buffers;  // index == dense tid
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: usable during static teardown
  return *r;
}

EventBuffer& local_buffer() {
  thread_local EventBuffer* buf = nullptr;
  if (!buf) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(std::make_unique<EventBuffer>());
    buf = r.buffers.back().get();
  }
  return *buf;
}

void append_json_escaped(std::string& out, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

namespace detail {

void record_span(const char* name, std::int64_t start_ns, std::int64_t dur_ns,
                 const char* arg_name[2], const std::int64_t arg_val[2], int nargs) {
  Event e{};
  e.name = name;
  e.start_ns = start_ns;
  e.dur_ns = dur_ns < 0 ? 0 : dur_ns;
  e.nargs = static_cast<std::uint8_t>(nargs);
  for (int i = 0; i < nargs; ++i) {
    e.arg_name[i] = arg_name[i];
    e.arg_val[i] = arg_val[i];
  }
  local_buffer().record(e);
}

}  // namespace detail

void set_tracing(bool enabled, int chunk_sample_every) {
  g_chunk_sample_every.store(enabled ? chunk_sample_every : 0, std::memory_order_relaxed);
  detail::g_enabled.store(enabled, std::memory_order_relaxed);
}

TraceState trace_state() {
  return TraceState{detail::g_enabled.load(std::memory_order_relaxed),
                    g_chunk_sample_every.load(std::memory_order_relaxed)};
}

void restore_tracing(const TraceState& s) {
  g_chunk_sample_every.store(s.chunk_sample_every, std::memory_order_relaxed);
  detail::g_enabled.store(s.enabled, std::memory_order_relaxed);
}

bool chunk_sampling_due() {
  const int every = g_chunk_sample_every.load(std::memory_order_relaxed);
  if (every <= 0 || !tracing_enabled()) return false;
  const std::uint64_t n = g_chunk_loop_counter.fetch_add(1, std::memory_order_relaxed);
  return n % static_cast<std::uint64_t>(every) == 0;
}

void counter(const char* name, std::int64_t value) {
  if (!tracing_enabled()) return;
  Event e{};
  e.name = name;
  e.start_ns = detail::now_ns();
  e.dur_ns = -1;
  e.arg_name[0] = "value";
  e.arg_val[0] = value;
  e.nargs = 1;
  local_buffer().record(e);
}

std::vector<TraceEvent> collect_events() {
  std::vector<TraceEvent> out;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (std::size_t tid = 0; tid < r.buffers.size(); ++tid) {
    const EventBuffer& buf = *r.buffers[tid];
    const std::uint64_t n = buf.count();
    for (std::uint64_t i = 0; i < n; ++i) {
      const Event& e = buf.at(i);
      TraceEvent t{};
      t.name = e.name;
      t.tid = static_cast<std::uint32_t>(tid);
      t.start_ns = e.start_ns;
      t.dur_ns = e.dur_ns;
      t.nargs = e.nargs;
      for (int a = 0; a < e.nargs; ++a) {
        t.arg_name[a] = e.arg_name[a];
        t.arg_val[a] = e.arg_val[a];
      }
      out.push_back(t);
    }
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.start_ns < b.start_ns;
  });
  return out;
}

std::uint64_t total_events() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::uint64_t n = 0;
  for (const auto& buf : r.buffers) n += buf->count();
  return n;
}

std::uint64_t allocated_bytes() {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}

void clear_events() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& buf : r.buffers) buf->clear();
}

std::string chrome_trace_json() {
  const std::vector<TraceEvent> events = collect_events();
  std::int64_t t0 = 0;
  for (const TraceEvent& e : events) {
    if (t0 == 0 || e.start_ns < t0) t0 = e.start_ns;
  }
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ",\n";
    first = false;
    // Chrome trace timestamps are microseconds; keep sub-µs as fraction.
    const double ts_us = static_cast<double>(e.start_ns - t0) / 1000.0;
    out += "{\"name\":\"";
    append_json_escaped(out, e.name);
    if (e.dur_ns >= 0) {
      const double dur_us = static_cast<double>(e.dur_ns) / 1000.0;
      std::snprintf(buf, sizeof buf,
                    "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f", e.tid,
                    ts_us, dur_us);
    } else {
      std::snprintf(buf, sizeof buf, "\",\"ph\":\"C\",\"pid\":1,\"tid\":%u,\"ts\":%.3f",
                    e.tid, ts_us);
    }
    out += buf;
    if (e.nargs > 0) {
      out += ",\"args\":{";
      for (int a = 0; a < e.nargs; ++a) {
        if (a) out += ',';
        out += '"';
        append_json_escaped(out, e.arg_name[a]);
        std::snprintf(buf, sizeof buf, "\":%" PRId64, e.arg_val[a]);
        out += buf;
      }
      out += '}';
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string json = chrome_trace_json();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  return ok;
}

std::vector<SpanSummary> summarize_spans() {
  // std::map keys on the name *text* (distinct literal addresses for the
  // same name merge) and yields the sorted order directly.
  std::map<std::string, SpanSummary> agg;
  for (const TraceEvent& e : collect_events()) {
    if (e.dur_ns < 0) continue;  // counters are not spans
    const double s = static_cast<double>(e.dur_ns) * 1e-9;
    auto [it, inserted] = agg.try_emplace(e.name);
    SpanSummary& sum = it->second;
    if (inserted) {
      sum.name = e.name;
      sum.min_seconds = s;
      sum.max_seconds = s;
    } else {
      sum.min_seconds = std::min(sum.min_seconds, s);
      sum.max_seconds = std::max(sum.max_seconds, s);
    }
    ++sum.count;
    sum.total_seconds += s;
  }
  std::vector<SpanSummary> out;
  out.reserve(agg.size());
  for (auto& [name, sum] : agg) out.push_back(std::move(sum));
  return out;
}

}  // namespace parmis::obs
