#include "check/alloc_guard.hpp"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace parmis::check {

#ifdef PARMIS_CHECK_INVARIANTS

namespace detail {
// Plain thread_local integers: each thread counts only its own allocator
// traffic, so the counters are race-free without atomics and a guard on
// the master thread is blind to worker-thread noise (the handles' scratch
// is always touched from the calling thread).
thread_local std::uint64_t t_allocs = 0;
}  // namespace detail

bool counting_available() { return true; }
std::uint64_t thread_allocations() { return detail::t_allocs; }

#else

bool counting_available() { return false; }
std::uint64_t thread_allocations() { return 0; }

#endif  // PARMIS_CHECK_INVARIANTS

}  // namespace parmis::check

#ifdef PARMIS_CHECK_INVARIANTS

// ---------------------------------------------------------------------------
// Global new/delete interposer (check builds only). Replaces the four
// replaceable allocation functions and their sized/aligned/nothrow
// variants; every path funnels through counted_alloc/counted_free. Linked
// into any binary that uses the parmis library (this translation unit also
// defines counting_available(), so the object file is always pulled in).
// ---------------------------------------------------------------------------

namespace {

void* counted_alloc(std::size_t size, std::size_t align) {
  ++parmis::check::detail::t_allocs;
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  return p;
}

void counted_free(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size, 0);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = counted_alloc(size, 0);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = counted_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }

#endif  // PARMIS_CHECK_INVARIANTS
