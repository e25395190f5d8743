#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocs{0};
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_allocs;
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

std::uint64_t allocs_total() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

std::uint64_t allocs_this_thread() noexcept { return t_allocs; }

}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
