#pragma once
/// \file service.hpp
/// \brief `serve::Service` — the atomic-swap serving runtime: a published,
/// epoch-versioned `ServingState` (matrix + optional hierarchy level
/// stack) answered by a `HandlePool`, with an osrm-style "customize" path
/// that refreshes matrix values on the fixed topology and publishes the
/// new state while in-flight solves finish on the old one.
///
/// Publication model: each published state is an immutable
/// `shared_ptr<const ServingState>` with a monotonically increasing epoch.
/// `customize(values)` replays the Galerkin hierarchy value-only
/// (`Builder::rebuild_galerkin`, the zero-allocation warm path) on the
/// service's private master handle, then swaps the new state in under a
/// tiny critical section — a pointer swap, nothing more. Requests pin an
/// epoch: an in-flight solve keeps its state alive through the
/// shared_ptr regardless of how many customizes land meanwhile, and a
/// request pinned to a future epoch blocks until that epoch is published.
/// Pinning is what makes a threaded replay bit-identical to a serial one
/// *including across a live swap*: which worker serves a request never
/// affects which operator it sees.
///
/// Determinism: a request's result is a function of (pinned state values,
/// rhs seed, solver configuration) only — all deterministic — so solution
/// digests are bit-identical across worker counts, acquisition order, and
/// customize timing.

#include <cstdint>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <span>
#include <string>
#include <vector>

#include "graph/crs.hpp"
#include "multilevel/builder.hpp"
#include "multilevel/hierarchy.hpp"
#include "serve/pool.hpp"
#include "serve/snapshot.hpp"
#include "solver/options.hpp"

namespace parmis::serve {

/// One immutable published state. Solves in flight hold the shared_ptr;
/// the arrays never mutate after publication.
struct ServingState {
  std::uint64_t epoch = 0;
  std::shared_ptr<const graph::CrsMatrix> a;
  /// Published hierarchy level stack (null when the service has none);
  /// what `HandlePool::ensure` adopts AMG setups from.
  std::shared_ptr<const std::vector<multilevel::OperatorLevel>> levels;
  std::uint64_t values_digest = 0;  ///< check::digest of a->values
};

/// One request: solve `A x = b(seed)` from x0 = 0 against the operator
/// published at `epoch`.
struct ServeRequest {
  std::uint64_t id = 0;
  std::uint64_t rhs_seed = 1;  ///< b = solver::random_vector(n, rhs_seed)
  std::uint64_t epoch = 0;     ///< pinned publication epoch
};

/// Everything the driver reports per request (`parmis_serve --json`).
struct RequestOutcome {
  std::uint64_t id = 0;
  std::uint64_t epoch = 0;
  resilience::SolveStatus status = resilience::SolveStatus::Converged;
  bool converged = false;
  int iterations = 0;
  double relative_residual = 0.0;
  double seconds = 0.0;  ///< request latency (epoch wait + lease + solve)
  std::uint64_t solution_digest = 0;
  /// AMG coarse-solve variant of the serving preconditioner ("lu",
  /// "lu-perturbed", "smoother"); "" when the stack is not AMG.
  const char* bottom_solve = "";
  /// Per-attempt resilience telemetry (copy of `IterResult::attempts`);
  /// filled when `Options::record_attempts`.
  std::vector<solver::AttemptInfo> attempts;
};

class Service {
 public:
  struct Options {
    HandlePool::Config pool;
    solver::IterOptions iter;
    /// Copy per-attempt telemetry into every RequestOutcome (telemetry
    /// allocation outside the handle's zero-allocation solve).
    bool record_attempts = true;
    /// Published states kept reachable for epoch-pinned requests; older
    /// epochs expire (a pinned request for an expired epoch throws).
    std::size_t max_history = 8;
  };

  /// Serve `a`. When `levels` is non-empty it becomes the published
  /// hierarchy (AMG setups adopt it instead of rebuilding); `workspace`
  /// (size `levels.size() - 1`) additionally enables the warm
  /// `customize()` replay — without it a customize on an AMG service
  /// throws rather than serving a stale hierarchy.
  Service(Options opts, graph::CrsMatrix a,
          std::vector<multilevel::OperatorLevel> levels = {},
          std::vector<multilevel::SetupWorkspace::GalerkinLevel> workspace = {});

  /// Serve a snapshot: materializes matrix `matrix_name` and, when
  /// present, hierarchy `hierarchy_name` (with its rebuild workspace).
  [[nodiscard]] static Service from_snapshot(Options opts, const SnapshotView& snap,
                                             const std::string& matrix_name = "a",
                                             const std::string& hierarchy_name = "hierarchy");

  /// The newest published state (never blocks).
  [[nodiscard]] std::shared_ptr<const ServingState> current() const;
  /// The state published at `epoch`: returns immediately when already
  /// published, blocks until a customize publishes it otherwise. Throws
  /// std::out_of_range when the epoch has expired from history.
  [[nodiscard]] std::shared_ptr<const ServingState> state(std::uint64_t epoch) const;
  [[nodiscard]] std::uint64_t epoch() const { return current()->epoch; }

  /// The customize path: new values on the fixed topology. Replays the
  /// hierarchy value-only on the master handle (zero allocations inside
  /// the multilevel handle), then publishes the new state — in-flight
  /// solves finish on their pinned epoch. Returns the new epoch. Throws
  /// std::invalid_argument when `values` does not match the topology,
  /// std::logic_error when the service holds a solve-only hierarchy (no
  /// rebuild workspace). Serialized internally; callers may race.
  std::uint64_t customize(std::span<const scalar_t> values);

  /// Publish the current state again under the next epoch — no value
  /// change, no rebuild, just an epoch bump (the arrays are shared with
  /// the previous state). The recovery primitive for drivers whose
  /// customize failed after consumers were already pinned to the next
  /// epoch: those consumers proceed against the unchanged operator
  /// instead of blocking forever. Returns the new epoch.
  std::uint64_t republish();

  /// Serve one request: a one-request wave of `solve_batch` (see
  /// `solve_wave`) — waits for the pinned epoch, leases a pool entry,
  /// warms it for the state (LRU / level adoption / build), generates b
  /// from the seed into entry-owned storage, solves from x0 = 0, and
  /// digests the solution. When `x_out` is non-empty (size n) the solution
  /// is copied into it; any other size throws std::invalid_argument
  /// before the solve.
  RequestOutcome solve(const ServeRequest& req, std::span<scalar_t> x_out = {});

  /// Serve a run of requests in batched waves: consecutive requests pinned
  /// to the same epoch are grouped into multi-RHS waves of at most `max_k`
  /// columns, each wave solved in one `SolveHandle::solve_batch` call on a
  /// single leased entry (one preconditioner warm-up and K fused traversals
  /// instead of K separate solves). Outcomes are returned in request order,
  /// and every outcome — status, iterations, solution digest — is
  /// bit-identical to `solve` on the same request: the rhs is generated
  /// from the same seed, the pinned epoch selects the same operator, and
  /// the batched cores are per-column bit-identical. An epoch boundary in
  /// the run closes the current wave (a wave never mixes operators), so
  /// batching composes with live customize swaps. `seconds` is the wave
  /// wall clock divided evenly over its columns.
  std::vector<RequestOutcome> solve_batch(std::span<const ServeRequest> reqs, int max_k);

  [[nodiscard]] const Options& options() const { return opts_; }
  [[nodiscard]] HandlePool& pool() { return pool_; }
  [[nodiscard]] const HandlePool& pool() const { return pool_; }
  /// Does the service hold a hierarchy that customize() can warm-replay?
  [[nodiscard]] bool can_rebuild() const;

 private:
  void publish(std::shared_ptr<const ServingState> state);
  /// One same-epoch wave of `solve_batch`, appended to `out` — the one
  /// request body behind `solve` (a one-request wave) and `solve_batch`.
  /// When `x_out` is non-empty (n x wave width, row-major) the solution
  /// multi-vector is copied into it.
  void solve_wave(std::span<const ServeRequest> reqs, std::vector<RequestOutcome>& out,
                  std::span<scalar_t> x_out = {});

  Options opts_;
  HandlePool pool_;

  /// Customize machinery: the master hierarchy handle (the one with the
  /// Galerkin rebuild workspace) and its builder. Guarded by
  /// customize_mu_; never touched by solve paths (workers only see
  /// published immutable copies).
  std::mutex customize_mu_;
  multilevel::Builder builder_;
  multilevel::HierarchyHandle master_;
  bool has_hierarchy_ = false;

  mutable std::mutex state_mu_;
  mutable std::condition_variable state_cv_;
  std::vector<std::shared_ptr<const ServingState>> states_;  ///< epoch-ascending
};

}  // namespace parmis::serve
