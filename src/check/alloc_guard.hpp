#pragma once
/// \file alloc_guard.hpp
/// \brief `check::AllocGuard`: mechanical enforcement of the
/// zero-allocation warm-run contract.
///
/// Since PR 2 every hot object in this library (Mis2Handle, CoarsenHandle,
/// SolveHandle, the multilevel SetupWorkspace) promises that *warm* runs —
/// repeated calls whose scratch capacity already suffices — perform zero
/// heap allocations. Until now that promise was policed indirectly, by
/// watching `scratch_bytes()` / `scratch_grows` stay flat, which misses
/// any allocation the capacity bookkeeping cannot see (a transient
/// temporary, a stray `std::string`, a container the workspace forgot to
/// own).
///
/// In `PARMIS_CHECK_INVARIANTS` builds this header arms a global
/// `operator new`/`operator delete` interposer that counts allocations in
/// a per-thread counter (thread-safe by construction: each thread counts
/// only its own calls). `AllocGuard` snapshots the calling thread's count
/// on construction; `allocations()` reports how many heap allocations the
/// scope performed. The handles wrap their run paths with a guard and
/// `PARMIS_CHECK` that a run which did not grow scratch allocated nothing
/// — the contract, enforced at the allocator itself.
///
/// In normal builds the interposer is absent (`counting_available()` is
/// false), `AllocGuard` compiles to a pair of no-op calls, and global
/// new/delete are untouched — the interposer never rides into a release
/// binary.

#include <cstdint>

namespace parmis::check {

/// True when this build interposes global new/delete and per-thread
/// allocation counting works (i.e. the library was compiled with
/// PARMIS_CHECK_INVARIANTS). Tests gate AllocGuard assertions on this.
[[nodiscard]] bool counting_available();

/// Number of heap allocations (global operator new calls, all variants)
/// performed by the calling thread so far. Always 0 when
/// `counting_available()` is false.
[[nodiscard]] std::uint64_t thread_allocations();

/// RAII allocation scope: counts the calling thread's heap allocations
/// between construction and the query. Nestable and re-entrant; costs two
/// thread-local reads. Not a memory profiler — it counts events, not
/// bytes, which is exactly what a zero-allocation contract needs.
class AllocGuard {
 public:
  AllocGuard() : start_(thread_allocations()) {}

  /// Allocations performed by this thread since construction.
  [[nodiscard]] std::uint64_t allocations() const { return thread_allocations() - start_; }

 private:
  std::uint64_t start_;
};

}  // namespace parmis::check
