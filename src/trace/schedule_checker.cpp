#include "trace/schedule_checker.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "stm/fwd.hpp"

namespace wstm::trace {

namespace {

struct ThreadState {
  bool open = false;
  std::uint64_t serial = 0;
  std::uint64_t last_serial = 0;
  bool saw_attempt = false;
  // Frame tracking within the current window. Static variants restart their
  // clock at every window start, so kWindowStart resets this.
  bool frame_known = false;
  std::uint64_t last_frame = 0;
};

class Reporter {
 public:
  explicit Reporter(CheckResult& result) : result_(result) {}

  void violation(const Event& e, const char* what, const std::string& extra = {}) {
    result_.total_violations++;
    if (result_.violations.size() >= kMaxViolationMessages) return;
    char buf[192];
    std::snprintf(buf, sizeof(buf), "[t=%.3fus thread=%u serial=%" PRIu64 " %s] %s",
                  static_cast<double>(e.t_ns - base_ns_) / 1000.0, e.thread, e.serial,
                  kind_name(e.kind), what);
    result_.violations.push_back(extra.empty() ? std::string(buf)
                                               : std::string(buf) + " — " + extra);
  }

  void set_base(std::int64_t base_ns) { base_ns_ = base_ns; }

 private:
  CheckResult& result_;
  std::int64_t base_ns_ = 0;
};

/// Lexicographic window comparison: true when (my) wins against (enemy).
bool my_vector_wins(const ResolvePrios& p, std::uint16_t my_slot, std::uint32_t enemy_slot) {
  if (p.my_pc != p.en_pc) return p.my_pc < p.en_pc;
  if (p.my_p2 != p.en_p2) return p.my_p2 < p.en_p2;
  return my_slot < enemy_slot;
}

}  // namespace

CheckResult ScheduleChecker::check(std::vector<Event> events) {
  std::stable_sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.t_ns != b.t_ns ? a.t_ns < b.t_ns : a.thread < b.thread;
  });

  CheckResult result;
  Reporter report(result);
  if (!events.empty()) report.set_base(events.front().t_ns);
  ThreadState state[stm::kMaxThreads];

  for (const Event& e : events) {
    if (e.thread >= stm::kMaxThreads) continue;
    ThreadState& st = state[e.thread];
    result.events_checked++;

    switch (e.kind) {
      case EventKind::kBegin:
        if (st.open) report.violation(e, "attempt begins while another is open");
        // The first visible serial may follow ring-dropped predecessors, so
        // only strict monotonicity is required, not density.
        if (st.saw_attempt && e.serial <= st.last_serial) {
          report.violation(e, "attempt serial not strictly increasing");
        }
        st.open = true;
        st.serial = e.serial;
        st.last_serial = e.serial;
        st.saw_attempt = true;
        break;

      case EventKind::kCommit:
      case EventKind::kAbort:
        if (!st.open || st.serial != e.serial) {
          // A begin that fell off the ring is fine only at the very start of
          // the thread's surviving window of events.
          if (st.saw_attempt) report.violation(e, "close without matching open attempt");
        }
        st.open = false;
        break;

      case EventKind::kConflict:
      case EventKind::kWait:
        if (!st.open || st.serial != e.serial) {
          if (st.saw_attempt) report.violation(e, "conflict outside an open attempt");
        }
        break;

      case EventKind::kPark:
        if (!st.open || st.serial != e.serial) {
          if (st.saw_attempt) report.violation(e, "park outside an open attempt");
        }
        break;

      case EventKind::kResolve: {
        result.resolves_checked++;
        if (st.saw_attempt && (!st.open || st.serial != e.serial)) {
          report.violation(e, "resolve outside an open attempt");
        }
        const ResolvePrios p = unpack_resolve_prios(e.a1);
        const auto res = static_cast<stm::Resolution>(e.detail);
        const bool won = my_vector_wins(p, e.thread, e.enemy);
        char extra[128];
        std::snprintf(extra, sizeof(extra),
                      "mine=(pi1=%u,pi2=%u,slot=%u) enemy=(pi1=%u,pi2=%u,slot=%u)", p.my_pc,
                      p.my_p2, e.thread, p.en_pc, p.en_p2, e.enemy);
        if (res == stm::Resolution::kRetry) {
          // Requester-waits mode parks a low-priority loser against a
          // high-priority winner instead of aborting; any other wait —
          // in particular from a winning position — is still a violation.
          if (!(p.my_pc > p.en_pc)) {
            report.violation(e, "window decision waited from a winning position", extra);
          }
        } else if (won != (res == stm::Resolution::kAbortEnemy)) {
          report.violation(e,
                           p.my_pc > p.en_pc && res == stm::Resolution::kAbortEnemy
                               ? "LOW priority won against HIGH"
                               : "decision contradicts lexicographic priority order",
                           extra);
        }
        break;
      }

      case EventKind::kPrioritySwitch:
        if (e.a1 < e.a0) {
          report.violation(e, "switched to HIGH before the assigned frame began");
        }
        if (st.frame_known && e.a1 < st.last_frame) {
          report.violation(e, "observed frame moved backwards");
        }
        st.frame_known = true;
        st.last_frame = e.a1;
        break;

      case EventKind::kFrameAdvance:
        if (st.frame_known && e.a0 < st.last_frame) {
          report.violation(e, "observed frame moved backwards");
        }
        st.frame_known = true;
        st.last_frame = e.a0;
        break;

      case EventKind::kWindowStart:
        // Static variants restart their frame clock here; forget the frame.
        st.frame_known = false;
        st.last_frame = 0;
        break;

      case EventKind::kWindowCommit: {
        const bool bad = (e.detail & 1) != 0;
        if (bad != (e.a1 > e.a0)) {
          report.violation(e, "bad-event flag disagrees with assigned/commit frames");
        }
        if (st.frame_known && e.a1 < st.last_frame) {
          report.violation(e, "observed frame moved backwards");
        }
        st.frame_known = true;
        st.last_frame = e.a1;
        break;
      }

      default:
        break;  // kBackoff / kCiUpdate carry no checkable invariant
    }
  }
  return result;
}

std::string CheckResult::to_string() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "checked %zu events (%zu window decisions): ", events_checked,
                resolves_checked);
  std::string out = buf;
  if (ok()) {
    out += "all window invariants hold\n";
    return out;
  }
  std::snprintf(buf, sizeof(buf), "%zu violations\n", total_violations);
  out += buf;
  for (const std::string& v : violations) {
    out += "  ";
    out += v;
    out += "\n";
  }
  if (total_violations > violations.size()) {
    std::snprintf(buf, sizeof(buf), "  ... and %zu more\n", total_violations - violations.size());
    out += buf;
  }
  return out;
}

}  // namespace wstm::trace
