// Transaction trace events.
//
// One Event is a fixed 40-byte POD so a per-thread ring buffer can record
// millions of them without allocation and a binary trace file is a plain
// byte dump (see sink.hpp). The payload fields a0/a1/enemy/detail are
// interpreted per EventKind; the packing helpers below keep the encoding in
// one place for the recorder (writers) and the analyzer/checker (readers).
//
// Who records what:
//  * stm::Runtime      — kBegin, kCommit, kAbort, kConflict, kWait
//  * cm::* managers    — kBackoff (Polka slice waits, window courtesy yield)
//  * window::WindowCM  — kResolve (the exact priority vectors a decision
//    used), kPrioritySwitch, kFrameAdvance, kWindowStart, kWindowCommit,
//    kCiUpdate
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>

#include "stm/fwd.hpp"

namespace wstm::trace {

/// `enemy` value meaning "no enemy recorded".
inline constexpr std::uint32_t kNoEnemy = 0xffffffffu;

enum class EventKind : std::uint8_t {
  kBegin = 0,       // detail bit0 = is_retry
  kCommit,          // a0 = attempt elapsed ns, a1 = response ns (since first begin)
  kAbort,           // a0 = attempt elapsed ns; detail bit0 = 1 when the
                    // deterministic checker's fault injector forced this
                    // abort (src/check/). The analyzer finds the killer
                    // through the winner's kConflict kill edge.
  kConflict,        // detail = pack_conflict(kind, resolution); enemy/a0 = enemy slot/serial
  kWait,            // conflict resolved to kRetry (the manager typically waited);
                    // enemy/a0 = enemy slot/serial
  kBackoff,         // a0 = waited ns, a1 = rounds/slices
  kResolve,         // window decision: detail = resolution, enemy/a0 = enemy slot/serial,
                    // a1 = pack_resolve_prios(...) — the exact vectors compared
  kPrioritySwitch,  // low->high: a0 = assigned frame F_ij, a1 = observed frame;
                    // detail bit0 = 1 when forced by the escalation ladder
                    // (liveness boost) rather than the frame clock
  kFrameAdvance,    // a0 = new frame, a1 = previously observed frame;
                    // detail bit0 = 1 when reported by the dynamic controller
  kWindowStart,     // a0 = random delay q_i, a1 = window length N
  kWindowCommit,    // a0 = assigned frame, a1 = commit frame; detail bit0 = bad event
  kCiUpdate,        // a0/a1 = C_i / CI estimate as double bit patterns;
                    // detail bit0 = 1 when triggered by a bad event

  // Liveness layer (src/resilience/), recorded by stm::Runtime in the
  // owning thread's ring:
  kWatchdog,        // watchdog detection collected by the owner: detail bit0 =
                    // abort storm, bit1 = stalled attempt; a0 = consecutive
                    // aborts, a1 = logical-transaction age ns
  kEscalate,        // escalation-ladder step taken for this attempt:
                    // detail = level (1 backoff, 2 priority boost, 3 serial
                    // fallback attempt); a0 = consecutive aborts
  kSerialToken,     // irrevocable serial-fallback token: detail 1 = acquired,
                    // 0 = released
  kChaos,           // chaos fault suffered: detail = ChaosInjector::Fault,
                    // a0 = injected sleep in microseconds
  kSnapshotExtend,  // invisible-read extension pass (commit clock advanced
                    // past the attempt's snapshot): a0 = read-set entries
                    // validated, a1 = sampled clock value; detail bit0 = 1
                    // when the snapshot advanced (no pending writer seen)

  // Serving front-end (src/serve/). kEnqueue is recorded in the producer's
  // ring (producers attach to the runtime for a slot when tracing),
  // kDequeue in the worker's; `serial` carries the request's conflict key
  // so enqueue/dequeue pairs can be joined offline.
  kEnqueue,         // a0 = queue index, a1 = queue depth after the push
  kDequeue,         // a0 = queue index, a1 = queue wait ns (submit→dequeue);
                    // detail bit0 = 1 when the request was shed as expired

  kClockBump,       // deferred-clock shared-line write (extension-path CAS
                    // advance; see DESIGN.md §11): a0 = trigger stamp the
                    // clock was raised to cover. Not recorded for orec, where
                    // every write-commit bumps the line and recording each
                    // would double trace volume for no attribution value.

  // Requester-waits arbitration (src/stm/park.hpp; DESIGN.md §13), recorded
  // by stm::Runtime. Absent in abort mode.
  kPark,            // real futex-style park: enemy/a1 = enemy slot/serial,
                    // a0 = parked ns; detail bit0 = 1 when the wakeup was
                    // spurious (enemy still active afterwards)
  kUnpark,          // status transition woke waiters: enemy = the slot whose
                    // descriptor the waiters were parked on, a0 = waiter count
};

inline constexpr std::uint8_t kNumEventKinds = 22;

const char* kind_name(EventKind kind) noexcept;

struct Event {
  std::int64_t t_ns = 0;      // steady-clock timestamp (util/timing.hpp epoch)
  std::uint64_t serial = 0;   // attempt serial of the recording thread
  std::uint64_t a0 = 0;       // payload, meaning per kind
  std::uint64_t a1 = 0;       // payload, meaning per kind
  std::uint32_t enemy = kNoEnemy;  // enemy thread slot where applicable
  std::uint16_t thread = 0;   // recording thread slot
  EventKind kind = EventKind::kBegin;
  std::uint8_t detail = 0;    // small payload, meaning per kind
};

static_assert(sizeof(Event) == 40, "Event must stay a packed 40-byte POD");
static_assert(std::is_trivially_copyable_v<Event>, "Event is dumped to disk verbatim");

// ---- kConflict payload ----------------------------------------------------

inline constexpr std::uint8_t pack_conflict(stm::ConflictKind kind, stm::Resolution res) {
  return static_cast<std::uint8_t>((static_cast<std::uint8_t>(kind) << 2) |
                                   static_cast<std::uint8_t>(res));
}
inline constexpr stm::ConflictKind conflict_kind_of(std::uint8_t detail) {
  return static_cast<stm::ConflictKind>(detail >> 2);
}
inline constexpr stm::Resolution resolution_of(std::uint8_t detail) {
  return static_cast<stm::Resolution>(detail & 0x3);
}

// ---- kResolve payload -----------------------------------------------------

/// The two window priority vectors as compared: π1 ∈ {0, 1} and π2 ∈ [1, M]
/// (M ≤ 64) both fit comfortably in 16 bits each.
inline constexpr std::uint64_t pack_resolve_prios(std::uint64_t my_pc, std::uint64_t my_p2,
                                                  std::uint64_t en_pc, std::uint64_t en_p2) {
  return (my_pc << 48) | ((my_p2 & 0xffff) << 32) | ((en_pc & 0xffff) << 16) | (en_p2 & 0xffff);
}

struct ResolvePrios {
  std::uint16_t my_pc, my_p2, en_pc, en_p2;
};

inline constexpr ResolvePrios unpack_resolve_prios(std::uint64_t a1) {
  return ResolvePrios{static_cast<std::uint16_t>(a1 >> 48),
                      static_cast<std::uint16_t>((a1 >> 32) & 0xffff),
                      static_cast<std::uint16_t>((a1 >> 16) & 0xffff),
                      static_cast<std::uint16_t>(a1 & 0xffff)};
}

// ---- double payloads (kCiUpdate) ------------------------------------------

inline std::uint64_t pack_double(double v) { return std::bit_cast<std::uint64_t>(v); }
inline double unpack_double(std::uint64_t bits) { return std::bit_cast<double>(bits); }

}  // namespace wstm::trace
