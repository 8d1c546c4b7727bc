#include "trace/analyzer.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <unordered_map>

namespace wstm::trace {

namespace {

/// (thread slot, serial) key for attempt lookup maps.
std::uint64_t key_of(std::uint32_t slot, std::uint64_t serial) {
  // Serials are per-thread counters; 48 bits is far beyond any run length.
  return (static_cast<std::uint64_t>(slot) << 48) | (serial & 0xffffffffffffULL);
}

}  // namespace

Analyzer::Analyzer(std::vector<Event> events) : events_(std::move(events)) {
  std::stable_sort(events_.begin(), events_.end(), [](const Event& a, const Event& b) {
    return a.t_ns != b.t_ns ? a.t_ns < b.t_ns : a.thread < b.thread;
  });

  // Pass 1: reconstruct attempts, kill edges, and frame occupancy.
  std::unordered_map<std::uint64_t, std::size_t> open;     // (slot,serial) -> attempts_ idx
  std::unordered_map<std::uint64_t, std::size_t> by_key;   // all attempts ever seen
  struct Edge {
    std::uint32_t killer_slot;
    std::uint64_t killer_serial;
  };
  std::unordered_map<std::uint64_t, Edge> kill_edge;       // victim key -> latest winner
  std::map<std::uint64_t, std::set<std::uint16_t>> frame_threads;

  auto open_attempt = [&](const Event& e) -> Attempt* {
    auto it = open.find(key_of(e.thread, e.serial));
    return it == open.end() ? nullptr : &attempts_[it->second];
  };

  for (const Event& e : events_) {
    ThreadStats& ts = threads_[e.thread];
    switch (e.kind) {
      case EventKind::kBegin: {
        Attempt a;
        a.thread = e.thread;
        a.serial = e.serial;
        a.begin_ns = e.t_ns;
        a.is_retry = (e.detail & 1) != 0;
        attempts_.push_back(a);
        open[key_of(e.thread, e.serial)] = attempts_.size() - 1;
        by_key[key_of(e.thread, e.serial)] = attempts_.size() - 1;
        break;
      }
      case EventKind::kConflict:
      case EventKind::kResolve: {
        if (Attempt* a = open_attempt(e)) a->conflicts++;
        ts.conflicts++;
        const stm::Resolution res = e.kind == EventKind::kConflict
                                        ? resolution_of(e.detail)
                                        : static_cast<stm::Resolution>(e.detail);
        if (res == stm::Resolution::kAbortEnemy && e.enemy != kNoEnemy) {
          kill_edge[key_of(e.enemy, e.a0)] = Edge{e.thread, e.serial};
        }
        break;
      }
      case EventKind::kWait:
        if (Attempt* a = open_attempt(e)) a->waits++;
        ts.waits++;
        break;
      case EventKind::kBackoff:
        ts.backoffs++;
        break;
      case EventKind::kCommit:
      case EventKind::kAbort: {
        auto it = open.find(key_of(e.thread, e.serial));
        if (it == open.end()) break;  // begin fell off the ring
        Attempt& a = attempts_[it->second];
        a.end_ns = e.t_ns;
        a.closed = true;
        a.committed = e.kind == EventKind::kCommit;
        if (a.committed) {
          ts.commits++;
          ts.committed_ns += a.duration_ns();
        } else {
          ts.aborts++;
          ts.wasted_ns += a.duration_ns();
          auto edge = kill_edge.find(key_of(e.thread, e.serial));
          if (edge != kill_edge.end()) {
            a.killer_slot = edge->second.killer_slot;
            a.killer_serial = edge->second.killer_serial;
          }
        }
        open.erase(it);
        break;
      }
      case EventKind::kPrioritySwitch: {
        FrameOccupancy& f = frames_[e.a1];
        f.high_entries++;
        frame_threads[e.a1].insert(e.thread);
        break;
      }
      case EventKind::kWindowCommit: {
        FrameOccupancy& f = frames_[e.a1];
        f.commits++;
        if (e.detail & 1) f.bad_commits++;
        break;
      }
      case EventKind::kSnapshotExtend: {
        ts.extensions++;
        ts.extension_reads += e.a0;
        break;
      }
      case EventKind::kClockBump: {
        ts.clock_bumps++;
        break;
      }
      default:
        break;  // kWindowStart/kFrameAdvance/kCiUpdate need no aggregation
    }
  }
  for (auto& [frame, occ] : frames_) {
    auto it = frame_threads.find(frame);
    occ.distinct_threads = it == frame_threads.end()
                               ? 0
                               : static_cast<std::uint32_t>(it->second.size());
  }

  // Pass 2: chain depth. depth(aborted a) = 1 + depth(killer attempt) when
  // the killer's attempt is known and itself aborted; cycles (possible under
  // racy mutual kills) and unknown killers terminate at 1.
  std::vector<std::uint8_t> state(attempts_.size(), 0);  // 0 new, 1 visiting, 2 done
  for (std::size_t i = 0; i < attempts_.size(); ++i) {
    if (state[i] == 2) continue;
    std::vector<std::size_t> stack{i};
    while (!stack.empty()) {
      const std::size_t cur = stack.back();
      Attempt& a = attempts_[cur];
      if (state[cur] == 2) {
        stack.pop_back();
        continue;
      }
      if (!a.closed || a.committed || a.killer_slot == kNoEnemy) {
        a.chain_depth = a.closed && !a.committed ? 1 : 0;
        state[cur] = 2;
        stack.pop_back();
        continue;
      }
      auto it = by_key.find(key_of(a.killer_slot, a.killer_serial));
      if (it == by_key.end()) {
        a.chain_depth = 1;
        state[cur] = 2;
        stack.pop_back();
        continue;
      }
      const std::size_t killer = it->second;
      if (state[killer] == 2) {
        const Attempt& k = attempts_[killer];
        a.chain_depth = 1 + (k.closed && !k.committed ? k.chain_depth : 0);
        state[cur] = 2;
        stack.pop_back();
      } else if (state[killer] == 1 || killer == cur) {
        a.chain_depth = 1;  // cycle: both attempts recorded a winning kill
        state[cur] = 2;
        stack.pop_back();
      } else {
        state[cur] = 1;
        stack.push_back(killer);
      }
    }
  }

  for (const Attempt& a : attempts_) {
    if (a.closed && !a.committed && a.killer_slot != kNoEnemy) {
      threads_[a.killer_slot].caused_wasted_ns += a.duration_ns();
    }
  }
}

std::map<std::uint32_t, std::int64_t> Analyzer::wasted_by_killer() const {
  std::map<std::uint32_t, std::int64_t> out;
  for (const Attempt& a : attempts_) {
    if (a.closed && !a.committed) out[a.killer_slot] += a.duration_ns();
  }
  return out;
}

std::vector<std::uint64_t> Analyzer::chain_depth_histogram() const {
  std::vector<std::uint64_t> hist;
  for (const Attempt& a : attempts_) {
    if (!a.closed || a.committed) continue;
    if (a.chain_depth >= hist.size()) hist.resize(a.chain_depth + 1, 0);
    hist[a.chain_depth]++;
  }
  return hist;
}

std::uint64_t Analyzer::high_high_frames() const {
  std::uint64_t n = 0;
  for (const auto& [frame, occ] : frames_) {
    if (occ.distinct_threads >= 2) n++;
  }
  return n;
}

std::string Analyzer::summary() const {
  char buf[256];
  std::string out;
  std::uint64_t commits = 0, aborts = 0, conflicts = 0;
  std::int64_t wasted = 0, committed_ns = 0;
  for (const auto& [slot, ts] : threads_) {
    commits += ts.commits;
    aborts += ts.aborts;
    conflicts += ts.conflicts;
    wasted += ts.wasted_ns;
    committed_ns += ts.committed_ns;
  }
  std::snprintf(buf, sizeof(buf),
                "trace: %zu events, %zu attempts, %" PRIu64 " commits, %" PRIu64
                " aborts, %" PRIu64 " conflicts\n",
                events_.size(), attempts_.size(), commits, aborts, conflicts);
  out += buf;
  const double total_ns = static_cast<double>(wasted + committed_ns);
  std::snprintf(buf, sizeof(buf), "wasted work: %.3f ms (%.1f%% of in-transaction time)\n",
                static_cast<double>(wasted) / 1e6,
                total_ns > 0 ? 100.0 * static_cast<double>(wasted) / total_ns : 0.0);
  out += buf;

  for (const auto& [slot, ts] : threads_) {
    std::snprintf(buf, sizeof(buf),
                  "  t%-2u commits=%-7" PRIu64 " aborts=%-7" PRIu64 " conflicts=%-7" PRIu64
                  " waits=%-6" PRIu64 " wasted=%.2fms caused=%.2fms\n",
                  slot, ts.commits, ts.aborts, ts.conflicts, ts.waits,
                  static_cast<double>(ts.wasted_ns) / 1e6,
                  static_cast<double>(ts.caused_wasted_ns) / 1e6);
    out += buf;
  }

  std::uint64_t extensions = 0, extension_reads = 0, clock_bumps = 0;
  for (const auto& [slot, ts] : threads_) {
    extensions += ts.extensions;
    extension_reads += ts.extension_reads;
    clock_bumps += ts.clock_bumps;
  }
  if (extensions > 0) {
    std::snprintf(buf, sizeof(buf),
                  "snapshot extensions: %" PRIu64 " passes over %" PRIu64
                  " read-set entries (%.2f entries/pass)\n",
                  extensions, extension_reads,
                  static_cast<double>(extension_reads) / static_cast<double>(extensions));
    out += buf;
  }
  if (clock_bumps > 0) {
    std::snprintf(buf, sizeof(buf),
                  "clock bumps: %" PRIu64
                  " shared-line writes (%.1f%% of extension passes)\n",
                  clock_bumps,
                  100.0 * static_cast<double>(clock_bumps) /
                      static_cast<double>(extensions > 0 ? extensions : 1));
    out += buf;
  }

  const auto hist = chain_depth_histogram();
  if (hist.size() > 1) {
    out += "abort chain depth:";
    for (std::size_t d = 1; d < hist.size(); ++d) {
      std::snprintf(buf, sizeof(buf), " %zu:%" PRIu64, d, hist[d]);
      out += buf;
    }
    out += "\n";
  }

  if (!frames_.empty()) {
    std::uint32_t max_high = 0;
    for (const auto& [frame, occ] : frames_) max_high = std::max(max_high, occ.high_entries);
    std::snprintf(buf, sizeof(buf),
                  "frames: %zu with activity, high/high collisions in %" PRIu64
                  ", max high entries %u\n",
                  frames_.size(), high_high_frames(), max_high);
    out += buf;
  }
  return out;
}

}  // namespace wstm::trace
