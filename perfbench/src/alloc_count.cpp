// Global operator new/delete replacement that counts allocator calls per
// thread, as bench/micro_stm.cpp does. Each thread owns one cache line of a
// fixed table (claimed on its first allocation, so counting never
// allocates), and readers sum the table with relaxed loads.
#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace pb {
namespace {

constexpr unsigned kSlots = 256;

struct alignas(64) Counter {
  std::atomic<std::uint64_t> calls{0};
};

Counter g_counters[kSlots];
std::atomic<unsigned> g_next_slot{0};
thread_local int t_slot = -1;

inline void count_one() noexcept {
  if (t_slot < 0) {
    t_slot = static_cast<int>(g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots);
  }
  std::atomic<std::uint64_t>& c = g_counters[t_slot].calls;
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  count_one();
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  count_one();
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded != 0 ? rounded : align)) return p;
  throw std::bad_alloc();
}

}  // namespace

std::uint64_t alloc_calls_except_this_thread() noexcept {
  std::uint64_t total = 0;
  for (unsigned i = 0; i < kSlots; ++i) {
    if (static_cast<int>(i) == t_slot) continue;
    total += g_counters[i].calls.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace pb

void* operator new(std::size_t size) { return pb::counted_alloc(size); }
void* operator new[](std::size_t size) { return pb::counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return pb::counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return pb::counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  pb::count_one();
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  pb::count_one();
  return std::malloc(size != 0 ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
