#include "window/controller.hpp"

#include <algorithm>
#include <cassert>

namespace wstm::window {

void WindowController::register_tx(unsigned slot, std::uint64_t frame) {
  assert(slot < slots_.size());
  Slot& s = slots_[slot];
  s.frame.store(frame, std::memory_order_relaxed);
  // The releases below order the registration before the raised reach and
  // high-water mark, so a scan that acquires either also sees the frame.
  if (frame > s.reach.load(std::memory_order_relaxed)) {
    s.reach.store(frame, std::memory_order_release);
  }
  unsigned used = used_slots_.load(std::memory_order_relaxed);
  while (used <= slot && !used_slots_.compare_exchange_weak(used, slot + 1,
                                                            std::memory_order_release,
                                                            std::memory_order_relaxed)) {
  }
  maybe_advance();
}

void WindowController::complete_tx(unsigned slot) {
  assert(slot < slots_.size());
  slots_[slot].frame.store(kNone, std::memory_order_relaxed);
  maybe_advance();
}

std::uint64_t WindowController::advance_target(std::uint64_t cur) const noexcept {
  const unsigned used = used_slots_.load(std::memory_order_acquire);
  std::uint64_t reach = 0;
  std::uint64_t least = kNone;  // least pending frame after cur
  bool any_pending = false;
  for (unsigned i = 0; i < used; ++i) {
    // reach before frame: the acquire pairs with register_tx's release.
    reach = std::max(reach, slots_[i].reach.load(std::memory_order_acquire));
    const std::uint64_t f = slots_[i].frame.load(std::memory_order_relaxed);
    if (f == cur) return cur;  // the current frame is busy: stay
    if (f == kNone) continue;
    any_pending = true;
    if (f > cur) least = std::min(least, f);
  }
  return any_pending ? std::min(reach, least) : cur;
}

std::uint64_t WindowController::maybe_advance() {
  std::uint64_t cur = current_.load(std::memory_order_acquire);
  for (;;) {
    const std::uint64_t target = advance_target(cur);
    if (target <= cur) return 0;
    // One CAS skips a whole run of empty frames. On failure cur holds the
    // frame another thread moved to; rescan from there.
    if (current_.compare_exchange_strong(cur, target, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      advances_.fetch_add(target - cur, std::memory_order_relaxed);
      return target - cur;
    }
  }
}

unsigned WindowController::pending(std::uint64_t frame) const noexcept {
  const unsigned used = used_slots_.load(std::memory_order_acquire);
  unsigned n = 0;
  for (unsigned i = 0; i < used; ++i) {
    n += slots_[i].frame.load(std::memory_order_relaxed) == frame ? 1 : 0;
  }
  return n;  // diagnostics only
}

}  // namespace wstm::window
