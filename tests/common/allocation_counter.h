// Counts global operator new calls in the test binary that includes it, so
// a test can assert that a code path allocates little or nothing. It
// replaces the global allocation functions: include it from exactly one
// translation unit of a binary.
#ifndef TESTS_COMMON_ALLOCATION_COUNTER_H_
#define TESTS_COMMON_ALLOCATION_COUNTER_H_

#include <cstdint>
#include <cstdlib>
#include <new>

inline uint64_t g_allocations = 0;  // global operator new calls in this binary

// None of the replacements is inlined: GCC would otherwise pair an inlined
// malloc() or free() with the other side's operator at a call site and
// warn -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#endif  // TESTS_COMMON_ALLOCATION_COUNTER_H_
