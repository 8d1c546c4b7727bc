// Low-overhead per-thread event recorder.
//
// Each thread slot owns a cache-line-padded ring of Events; record() is a
// store into the owning thread's ring plus a release bump of its head
// counter — no locks, no allocation, no sharing. When the ring wraps, the
// oldest events are overwritten (drop-oldest keeps the interesting end of a
// long run). Tracing is toggled by *presence*: the Runtime holds a
// `Recorder*` that is null when tracing is off, so the disabled hot path
// pays exactly one predictable-null branch per instrumentation site.
//
// drain_sorted()/clear() are quiescent-only: call them after the worker
// threads have joined (the joins are the synchronization edge that makes
// the plain Event writes visible).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "stm/fwd.hpp"
#include "trace/event.hpp"
#include "util/cacheline.hpp"
#include "util/timing.hpp"

namespace wstm::trace {

class Recorder {
 public:
  struct Options {
    /// Thread slots with a ring, at most stm::kMaxThreads (events from
    /// slots >= threads are ignored). Every ring is allocated up front, so
    /// the default covers the first 64 slots rather than all of them; pass
    /// the run's thread count to cover more.
    unsigned threads = 64;
    /// Ring capacity in events per thread, rounded up to a power of two.
    /// Oldest events are overwritten once the ring is full.
    std::size_t capacity_per_thread = std::size_t{1} << 16;
  };

  Recorder() : Recorder(Options{}) {}
  explicit Recorder(Options options);

  /// Record one event from thread `slot` (owning thread only). Safe to call
  /// with an out-of-range slot (dropped), so detached helpers cannot crash.
  void record(unsigned slot, EventKind kind, std::uint64_t serial, std::uint8_t detail = 0,
              std::uint32_t enemy = kNoEnemy, std::uint64_t a0 = 0,
              std::uint64_t a1 = 0) noexcept {
    if (slot >= threads_) return;
    Ring& ring = rings_[slot];
    const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
    Event& e = ring.buf[head & mask_];
    e.t_ns = now_ns();
    e.serial = serial;
    e.a0 = a0;
    e.a1 = a1;
    e.enemy = enemy;
    e.thread = static_cast<std::uint16_t>(slot);
    e.kind = kind;
    e.detail = detail;
    ring.head.store(head + 1, std::memory_order_release);
  }

  unsigned threads() const noexcept { return threads_; }
  std::size_t capacity_per_thread() const noexcept { return mask_ + 1; }

  /// Events ever recorded from `slot` (including overwritten ones).
  std::uint64_t recorded(unsigned slot) const noexcept;
  /// Events from `slot` lost to ring wraparound.
  std::uint64_t dropped(unsigned slot) const noexcept;

  /// All surviving events, ordered by timestamp (ties by thread slot).
  /// Quiescent-only.
  std::vector<Event> drain_sorted() const;

  /// Forget everything recorded so far (e.g. between populate and the
  /// measured interval). Quiescent-only.
  void clear() noexcept;

 private:
  struct alignas(kCacheLine) Ring {
    std::atomic<std::uint64_t> head{0};
    std::unique_ptr<Event[]> buf;
  };

  unsigned threads_;
  std::size_t mask_;
  std::array<Ring, stm::kMaxThreads> rings_;
};

}  // namespace wstm::trace
