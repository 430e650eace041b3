#pragma once
/// \file trace.hpp
/// \brief Low-overhead tracing: RAII spans into per-thread lock-free event
/// buffers, with Chrome-trace and aggregated-summary exporters.
///
/// The paper's evidence is per-phase (Fig. 2's optimization breakdown,
/// Table II's timing splits, the per-level coarsening profiles), so knowing
/// where time goes *inside* a run is a first-class requirement. This layer
/// provides it without perturbing what it measures:
///
///  - `PARMIS_SPAN("mis2.refresh_col")` opens an RAII span. When tracing
///    is disabled (the default) the constructor is a single relaxed atomic
///    load and a branch — no clock read, no allocation, no store. When
///    enabled, a span costs two `steady_clock` reads plus one append to the
///    *current thread's* event buffer.
///  - Event buffers are thread-owned and append-only: fixed-size blocks
///    reached through release-stored pointers and a release-published
///    count, so a reader draining after the parallel work finished sees a
///    consistent prefix without locks on the hot path (and TSan agrees).
///  - Exporters: Chrome trace-event JSON (`chrome://tracing` / Perfetto)
///    and a flat per-span-name summary (count/total/min/max) for machine
///    diffing.
///
/// Tracing never changes results: spans only read clocks and write to
/// buffers the algorithms never consult — the determinism contract is
/// asserted by the tracing-on/off bit-equality tests.
///
/// Enablement is process-global (worker threads spawned inside a traced
/// region must see it), toggled directly with `set_tracing()` or scoped
/// through `parmis::Context` (`Context::trace`, applied by
/// `Context::Scope`). Define `PARMIS_OBS_DISABLE` to compile every span
/// site down to nothing.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace parmis::obs {

/// Tracing configuration carried by `parmis::Context`. `Inherit` (the
/// default) leaves the process-global state alone, so contexts that never
/// mention tracing compose transparently with an enclosing traced region.
struct TraceOptions {
  enum class Mode : std::uint8_t {
    Inherit,  ///< keep the ambient tracing state (the default)
    Off,      ///< disable tracing for the scope
    On,       ///< enable tracing for the scope
  };
  Mode mode = Mode::Inherit;
  /// Per-chunk span sampling for `par::balanced_chunks`: record the chunk
  /// spans of every Nth chunked loop (1 = every loop, 0 = none). The
  /// measured per-chunk cost feed the work-stealing scheduler needs.
  int chunk_sample_every = 0;
  friend bool operator==(const TraceOptions&, const TraceOptions&) = default;
};

/// Snapshot of the process-global tracing state (for save/restore by
/// `Context::Scope`).
struct TraceState {
  bool enabled = false;
  int chunk_sample_every = 0;
};

namespace detail {
extern std::atomic<bool> g_enabled;

/// Monotonic nanoseconds (steady_clock raw ticks; exporters rebase to the
/// trace's own start, so only differences matter).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void record_span(const char* name, std::int64_t start_ns, std::int64_t dur_ns,
                 const char* arg_name[2], const std::int64_t arg_val[2], int nargs);
}  // namespace detail

/// True when span sites record. A single relaxed load — the entire
/// disabled-path cost of a span.
inline bool tracing_enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Enable/disable tracing process-wide. `chunk_sample_every` gates the
/// per-chunk spans of `par::balanced_chunks` (0 = off).
void set_tracing(bool enabled, int chunk_sample_every = 0);

/// Current process-global tracing state.
[[nodiscard]] TraceState trace_state();

/// Restore a state captured with `trace_state()`.
void restore_tracing(const TraceState& s);

/// True when the *next* chunked loop should record per-chunk spans, and
/// advances the sampling counter. Called once per `balanced_chunks`
/// invocation, never per element.
[[nodiscard]] bool chunk_sampling_due();

#ifndef PARMIS_OBS_DISABLE

/// RAII span. Construct with a **string literal** (the name pointer is
/// stored, not copied); attach up to two named integer args before the
/// scope closes. Inactive spans (tracing disabled at construction) cost
/// nothing on destruction.
class Span {
 public:
  explicit Span(const char* name) {
    if (tracing_enabled()) {
      name_ = name;
      start_ns_ = detail::now_ns();
    }
  }
  ~Span() {
    if (start_ns_ >= 0) {
      detail::record_span(name_, start_ns_, detail::now_ns() - start_ns_, arg_name_, arg_val_,
                          nargs_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a named integer argument (string literal; max 2, extras are
  /// dropped). No-op when the span is inactive.
  void arg(const char* name, std::int64_t value) {
    if (start_ns_ >= 0 && nargs_ < 2) {
      arg_name_[nargs_] = name;
      arg_val_[nargs_] = value;
      ++nargs_;
    }
  }

  /// True when this span is recording (tracing was on at construction).
  [[nodiscard]] bool active() const { return start_ns_ >= 0; }

 private:
  const char* name_ = nullptr;
  std::int64_t start_ns_ = -1;
  const char* arg_name_[2] = {nullptr, nullptr};
  std::int64_t arg_val_[2] = {0, 0};
  int nargs_ = 0;
};

#else  // PARMIS_OBS_DISABLE: every span site compiles to nothing.

class Span {
 public:
  explicit Span(const char*) {}
  void arg(const char*, std::int64_t) {}
  [[nodiscard]] bool active() const { return false; }
};

#endif

/// Record an instant counter sample (Chrome trace "C" event). No-op when
/// tracing is disabled. `name` must be a string literal.
void counter(const char* name, std::int64_t value);

#define PARMIS_OBS_CONCAT2(a, b) a##b
#define PARMIS_OBS_CONCAT(a, b) PARMIS_OBS_CONCAT2(a, b)
/// Open an RAII span for the rest of the enclosing scope.
#define PARMIS_SPAN(name) \
  ::parmis::obs::Span PARMIS_OBS_CONCAT(parmis_obs_span_, __COUNTER__)(name)

// ------------------------------------------------------------- inspection

/// One drained event (spans have `dur_ns >= 0`; counters `dur_ns == -1`).
struct TraceEvent {
  const char* name;
  std::uint32_t tid;       ///< dense per-thread id, registration order
  std::int64_t start_ns;   ///< steady_clock ns (rebase against the minimum)
  std::int64_t dur_ns;     ///< span duration, or -1 for a counter sample
  const char* arg_name[2];
  std::int64_t arg_val[2];
  int nargs;
};

/// Drain a snapshot of every thread's buffer, sorted by (tid, start).
/// Call only while no traced work is in flight.
[[nodiscard]] std::vector<TraceEvent> collect_events();

/// Total events currently buffered across all threads.
[[nodiscard]] std::uint64_t total_events();

/// Bytes of event-block storage allocated since process start. Never
/// advances while tracing is disabled — the zero-allocation contract the
/// obs tests assert.
[[nodiscard]] std::uint64_t allocated_bytes();

/// Reset all buffered events (block storage is retained for reuse).
void clear_events();

// -------------------------------------------------------------- exporters

/// Chrome trace-event JSON of everything buffered: one complete ("X")
/// event per span, one counter ("C") event per counter sample, timestamps
/// rebased to the earliest event. Loadable in chrome://tracing / Perfetto.
[[nodiscard]] std::string chrome_trace_json();

/// `chrome_trace_json()` to a file; false on I/O failure.
bool write_chrome_trace(const std::string& path);

/// Flat per-span-name aggregate — the machine-diffable summary.
struct SpanSummary {
  std::string name;
  std::uint64_t count = 0;
  double total_seconds = 0;
  double min_seconds = 0;
  double max_seconds = 0;
};

/// Aggregate every buffered span by name, sorted by name.
[[nodiscard]] std::vector<SpanSummary> summarize_spans();

}  // namespace parmis::obs
