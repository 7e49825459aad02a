// Process-wide heap allocation counter for bench binaries.
//
// Including this header replaces the global allocation functions with
// malloc/free wrappers that bump an atomic counter, so benches can report
// *heap allocations per simulated round* — the metric the flat-arena
// mailbox work optimizes — without any external tooling. The replacements
// are ODR-owned by the including translation unit: include this from the
// bench's single .cpp only, never from two TUs of one binary and never
// from library code.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace benchalloc {

inline std::atomic<unsigned long long> g_heap_allocs{0};

/// Total operator-new calls in this process so far.
inline unsigned long long allocations() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

inline void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

/// Over-aligned types (alignof > __STDCPP_DEFAULT_NEW_ALIGNMENT__, e.g. the
/// 32-byte global_msg) allocate through the align_val_t overloads, which
/// the plain replacements above never see; count them too. aligned_alloc
/// needs a size that is a multiple of the alignment; free releases it.
inline void* counted_aligned_alloc(std::size_t size, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}

}  // namespace benchalloc

void* operator new(std::size_t size) { return benchalloc::counted_alloc(size); }
void* operator new[](std::size_t size) {
  return benchalloc::counted_alloc(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  benchalloc::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  benchalloc::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void* operator new(std::size_t size, std::align_val_t al) {
  if (void* p = benchalloc::counted_aligned_alloc(size, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  if (void* p = benchalloc::counted_aligned_alloc(size, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return benchalloc::counted_aligned_alloc(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return benchalloc::counted_aligned_alloc(size, al);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
