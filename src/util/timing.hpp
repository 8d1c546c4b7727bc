// Monotonic time helpers. All durations in the library are nanoseconds as
// int64 ticks from std::chrono::steady_clock; this header centralizes the
// conversions so call sites stay readable.
//
// Deterministic checking (src/check/) virtualizes this clock: the
// serialized executor installs an atomic counter it advances by a fixed
// tick per scheduling decision, so every time-derived decision (Greedy /
// Priority ordering, window frame transitions, τ estimates) replays
// bit-identically. The disabled cost is one relaxed load of a never-written
// pointer plus a predicted branch per now_ns() call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace wstm {

using Clock = std::chrono::steady_clock;
using Nanos = std::chrono::nanoseconds;

namespace detail {
/// Non-null ⇒ now_ns() reads this counter instead of the real clock.
inline std::atomic<const std::atomic<std::int64_t>*> g_virtual_now{nullptr};
}  // namespace detail

/// Installs (or, with nullptr, removes) a virtual clock. Only the
/// deterministic checker uses this; install before worker threads spawn and
/// remove after they join — concurrent runs with different clocks in one
/// process are not supported.
inline void set_virtual_clock(const std::atomic<std::int64_t>* clock) noexcept {
  detail::g_virtual_now.store(clock, std::memory_order_release);
}

/// Nanoseconds since an arbitrary (but fixed) epoch.
inline std::int64_t now_ns() noexcept {
  const std::atomic<std::int64_t>* v =
      detail::g_virtual_now.load(std::memory_order_relaxed);
  if (v != nullptr) [[unlikely]] {
    return v->load(std::memory_order_relaxed);
  }
  return std::chrono::duration_cast<Nanos>(Clock::now().time_since_epoch()).count();
}

inline double ns_to_ms(std::int64_t ns) noexcept { return static_cast<double>(ns) / 1e6; }
inline double ns_to_s(std::int64_t ns) noexcept { return static_cast<double>(ns) / 1e9; }

/// Scope timer accumulating elapsed nanoseconds into a sink on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::int64_t& sink) noexcept : sink_(sink), start_(now_ns()) {}
  ~ScopedTimer() { sink_ += now_ns() - start_; }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::int64_t& sink_;
  std::int64_t start_;
};

}  // namespace wstm
