#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<unsigned long long> g_allocs{0};

}  // namespace

unsigned long long gasched::bench::allocs_total() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

// Counting hook: every heap allocation in the process bumps the counter.
// Deliberately minimal — malloc/free keep their usual semantics.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
