#include "trace/recorder.hpp"

#include <algorithm>
#include <stdexcept>

namespace wstm::trace {

namespace {
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

Recorder::Recorder(Options options)
    : threads_(options.threads < stm::kMaxThreads ? options.threads : stm::kMaxThreads),
      mask_(round_up_pow2(options.capacity_per_thread < 2 ? 2 : options.capacity_per_thread) -
            1) {
  if (options.threads == 0) throw std::invalid_argument("Recorder: threads must be > 0");
  for (unsigned i = 0; i < threads_; ++i) {
    rings_[i].buf = std::make_unique<Event[]>(mask_ + 1);
  }
}

std::uint64_t Recorder::recorded(unsigned slot) const noexcept {
  if (slot >= threads_) return 0;
  return rings_[slot].head.load(std::memory_order_acquire);
}

std::uint64_t Recorder::dropped(unsigned slot) const noexcept {
  const std::uint64_t head = recorded(slot);
  const std::uint64_t cap = mask_ + 1;
  return head > cap ? head - cap : 0;
}

std::vector<Event> Recorder::drain_sorted() const {
  std::vector<Event> out;
  for (unsigned slot = 0; slot < threads_; ++slot) {
    const Ring& ring = rings_[slot];
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    const std::uint64_t cap = mask_ + 1;
    const std::uint64_t n = head < cap ? head : cap;
    for (std::uint64_t i = head - n; i < head; ++i) {
      out.push_back(ring.buf[i & mask_]);
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    return a.t_ns != b.t_ns ? a.t_ns < b.t_ns : a.thread < b.thread;
  });
  return out;
}

void Recorder::clear() noexcept {
  for (unsigned i = 0; i < threads_; ++i) {
    rings_[i].head.store(0, std::memory_order_release);
  }
}

const char* kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kBegin: return "begin";
    case EventKind::kCommit: return "commit";
    case EventKind::kAbort: return "abort";
    case EventKind::kConflict: return "conflict";
    case EventKind::kWait: return "wait";
    case EventKind::kBackoff: return "backoff";
    case EventKind::kResolve: return "resolve";
    case EventKind::kPrioritySwitch: return "priority_switch";
    case EventKind::kFrameAdvance: return "frame_advance";
    case EventKind::kWindowStart: return "window_start";
    case EventKind::kWindowCommit: return "window_commit";
    case EventKind::kCiUpdate: return "ci_update";
    case EventKind::kWatchdog: return "watchdog";
    case EventKind::kEscalate: return "escalate";
    case EventKind::kSerialToken: return "serial_token";
    case EventKind::kChaos: return "chaos";
    case EventKind::kSnapshotExtend: return "snapshot_extend";
    case EventKind::kEnqueue: return "enqueue";
    case EventKind::kDequeue: return "dequeue";
    case EventKind::kClockBump: return "clock_bump";
    case EventKind::kPark: return "park";
    case EventKind::kUnpark: return "unpark";
  }
  return "?";
}

}  // namespace wstm::trace
