// Shared frame controller for the *dynamic* window variants.
//
// Paper, Section III-B: "as soon as the last transaction inside a
// particular frame finishes, we start the new frame" (contraction), and if
// transactions are still pending at the nominal frame end the frame simply
// keeps running (expansion). Both rules reduce to one advance condition:
//
//     advance past frame f  ⇔  no registered-but-uncommitted transaction is
//                              assigned to f, something is pending, and
//                              something was registered beyond f.
//
// Threads register each logical transaction under its assigned frame at the
// first attempt and complete it at commit; retries keep the registration.
// A thread therefore has at most one pending registration, so the state is
// one entry per thread slot: the slot's pending frame and the largest frame
// it ever registered. A registration replaces the slot's previous one, which
// also retires a transaction that ended by exception without committing.
// Until its thread's next transaction, though, such an abandoned
// registration holds its frame like any other pending one.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "stm/fwd.hpp"
#include "util/cacheline.hpp"

namespace wstm::window {

class WindowController {
 public:
  std::uint64_t current_frame() const noexcept {
    return current_.load(std::memory_order_acquire);
  }

  /// Announces the logical transaction of thread `slot` (< stm::kMaxThreads)
  /// under `frame`, replacing the slot's previous registration if it never
  /// completed, then runs the contraction rule.
  void register_tx(unsigned slot, std::uint64_t frame);

  /// The registered transaction of `slot` committed.
  void complete_tx(unsigned slot);

  /// Contraction: moves the current frame to the least pending frame, or to
  /// the furthest registered frame if that is nearer, when the current frame
  /// is drained and something is pending. Safe to call from any thread at
  /// any time. Returns the number of frames this call advanced past (0 =
  /// none), so tracing callers can attribute the advance to the thread that
  /// drove it. Scans the slots registered so far, up to the first one
  /// pending at the current frame.
  std::uint64_t maybe_advance();

  /// Thread slots with a pending registration at `frame` (tests/diagnostics).
  unsigned pending(std::uint64_t frame) const noexcept;

  /// Total frames advanced by contraction while txs waited (diagnostics).
  std::uint64_t advances() const noexcept { return advances_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  // 16 bytes per slot, packed: a scan reads every slot in use, so four
  // threads' entries share the one line it loads. Only the owning thread
  // writes its entry.
  struct Slot {
    std::atomic<std::uint64_t> frame{kNone};  // the pending registration, or kNone
    std::atomic<std::uint64_t> reach{0};      // largest frame this slot registered
  };

  /// The frame contraction would move to from `cur` (≤ cur: stay).
  std::uint64_t advance_target(std::uint64_t cur) const noexcept;

  // Written only on frame advances; advances_ shares the line.
  alignas(kCacheLine) std::atomic<std::uint64_t> current_{0};
  std::atomic<std::uint64_t> advances_{0};
  // One past the highest slot that ever registered: bounds the scan. Read
  // by every registration, written once per new slot.
  alignas(kCacheLine) std::atomic<unsigned> used_slots_{0};
  alignas(kCacheLine) std::array<Slot, stm::kMaxThreads> slots_{};
};

}  // namespace wstm::window
