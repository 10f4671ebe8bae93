// support: counting global operator new/delete replacements.
//
// NOT a member of any library target — replacing the global allocation
// functions affects the whole program, so only targets that measure
// allocation (the tickperf and timing tests, the pipeline_tick bench)
// compile this translation unit in, via
// target_sources(<tgt> PRIVATE .../alloc_hooks.cpp).
// Putting it in a static library would be fragile anyway: nothing references
// these symbols by name, so the archive member would never be pulled in.
//
// Under ASan/TSan the sanitizer runtime owns the allocator; these
// replacements still forward through malloc correctly, but tests gate their
// zero-allocation assertions on the sanitizer macros instead.
#include <cstdlib>
#include <new>

#include "support/alloc_counter.h"

namespace {

using certkit::support::alloc_internal::MarkHooksLinked;
using certkit::support::alloc_internal::RecordAlloc;
using certkit::support::alloc_internal::RecordDealloc;

void* CountedAlloc(std::size_t size) {
  RecordAlloc(size);
  // malloc(0) may return nullptr; operator new must not.
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAllocNothrow(std::size_t size) noexcept {
  RecordAlloc(size);
  return std::malloc(size == 0 ? 1 : size);
}

// Static-init side channel so AllocCountingActive() reports the truth in
// binaries that link this TU.
struct HookMarker {
  HookMarker() { MarkHooksLinked(); }
} g_hook_marker;

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocNothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocNothrow(size);
}

void operator delete(void* p) noexcept {
  if (p != nullptr) RecordDealloc();
  std::free(p);
}
void operator delete[](void* p) noexcept {
  if (p != nullptr) RecordDealloc();
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  if (p != nullptr) RecordDealloc();
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  if (p != nullptr) RecordDealloc();
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  if (p != nullptr) RecordDealloc();
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  if (p != nullptr) RecordDealloc();
  std::free(p);
}

// C++17 aligned forms (Tensor data is plain float vectors today, but a
// future aligned container must not bypass the count).
void* operator new(std::size_t size, std::align_val_t align) {
  RecordAlloc(size);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = size == 0 ? a : (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept {
  if (p != nullptr) RecordDealloc();
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  if (p != nullptr) RecordDealloc();
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  if (p != nullptr) RecordDealloc();
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  if (p != nullptr) RecordDealloc();
  std::free(p);
}
