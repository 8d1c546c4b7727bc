#include "check/checker.hpp"

#include <stdexcept>
#include <thread>
#include <utility>

#include "check/executor.hpp"
#include "cm/registry.hpp"
#include "stm/runtime.hpp"
#include "structs/intset.hpp"
#include "trace/recorder.hpp"
#include "trace/schedule_checker.hpp"
#include "util/rng.hpp"

namespace wstm::check {
namespace {

struct OpSpec {
  OpKind kind;
  long a;
  long b;
};

/// The deterministic op stream of virtual thread `vid`. Only CheckConfig
/// fields feed the generator, so every run (explore or replay) of the same
/// config executes the same program.
std::vector<OpSpec> make_ops(const CheckConfig& c, int vid) {
  Xoshiro256 rng(c.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(vid) + 1);
  const bool insert_heavy = c.op_mix == "insert-heavy";
  const auto range = static_cast<std::uint64_t>(c.key_range);
  std::vector<OpSpec> ops;
  ops.reserve(c.ops_per_thread);
  for (unsigned i = 0; i < c.ops_per_thread; ++i) {
    const std::uint64_t roll = rng.below(100);
    OpSpec op{};
    if (roll < c.pair_percent) {
      const bool move = !insert_heavy && rng.below(2) == 0;
      op.kind = move ? OpKind::kMove : OpKind::kPairRead;
      op.a = static_cast<long>(rng.below(range));
      op.b = static_cast<long>(rng.below(range));
    } else if (roll < c.pair_percent + c.update_percent) {
      op.kind = (insert_heavy || rng.below(2) == 0) ? OpKind::kInsert : OpKind::kRemove;
      op.a = static_cast<long>(rng.below(range));
    } else {
      op.kind = OpKind::kContains;
      op.a = static_cast<long>(rng.below(range));
    }
    ops.push_back(op);
  }
  return ops;
}

stm::RuntimeConfig::DebugFaults parse_bug(const std::string& bug) {
  stm::RuntimeConfig::DebugFaults b;
  if (bug == "none" || bug.empty()) return b;
  if (bug == "blind-commit") {
    b.blind_commit = true;
  } else if (bug == "skip-reader-abort") {
    b.skip_reader_abort = true;
  } else if (bug == "skip-cas-recheck") {
    b.skip_cas_recheck = true;
  } else if (bug == "stamp-no-pending") {
    b.stamp_no_pending = true;
  } else if (bug == "skip-read-validation") {
    b.orec_skip_validation = true;  // orec backend only; a no-op under dstm
  } else if (bug == "park-lost-wakeup") {
    b.park_lost_wakeup = true;  // meaningful only with arbitration=wait
  } else {
    throw std::invalid_argument("unknown seeded bug \"" + bug +
                                "\" (none|blind-commit|skip-reader-abort|skip-cas-recheck|"
                                "stamp-no-pending|skip-read-validation|park-lost-wakeup)");
  }
  return b;
}

void run_op(stm::Runtime& rt, stm::ThreadCtx& tc, structs::TxIntSet& set, HistoryRecorder& hist,
            int vid, const OpSpec& op) {
  const std::size_t idx = hist.invoke(vid, op.kind, op.a, op.b);
  switch (op.kind) {
    case OpKind::kInsert:
      hist.respond(idx, rt.atomically(tc, [&](stm::Tx& tx) { return set.insert(tx, op.a); }));
      break;
    case OpKind::kRemove:
      hist.respond(idx, rt.atomically(tc, [&](stm::Tx& tx) { return set.remove(tx, op.a); }));
      break;
    case OpKind::kContains:
      hist.respond(idx, rt.atomically(tc, [&](stm::Tx& tx) { return set.contains(tx, op.a); }));
      break;
    case OpKind::kMove: {
      const auto [removed, inserted] = rt.atomically(tc, [&](stm::Tx& tx) {
        const bool r = set.remove(tx, op.a);
        const bool i = set.insert(tx, op.b);
        return std::pair{r, i};
      });
      hist.respond(idx, removed, inserted);
      break;
    }
    case OpKind::kPairRead: {
      const auto [in_a, in_b] = rt.atomically(tc, [&](stm::Tx& tx) {
        const bool r0 = set.contains(tx, op.a);
        const bool r1 = set.contains(tx, op.b);
        return std::pair{r0, r1};
      });
      hist.respond(idx, in_a, in_b);
      break;
    }
  }
}

}  // namespace

std::uint64_t Checker::derive_policy_seed(std::uint64_t base_seed, std::uint64_t index) {
  std::uint64_t state = base_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  return splitmix64(state);
}

RunResult Checker::run_with_policy(Policy& policy, const CheckConfig& cfg) {
  RunResult rr;
  rr.schedule.config = cfg;

  stm::RuntimeConfig rtc;
  rtc.seed = cfg.seed;
  rtc.backend = stm::parse_backend(cfg.backend);
  rtc.arbitration = stm::parse_arbitration(cfg.arbitration);
  rtc.visible_reads = cfg.visible_reads;
  rtc.bugs = parse_bug(cfg.bug);
  if (cfg.liveness) {
    // Checker-friendly liveness: tight thresholds so short runs reach the
    // serial-fallback level, no real-time sleeps (the executor owns time),
    // no watchdog thread (the Runtime skips it under a checker anyway),
    // and no deadline (virtual clocks make wall deadlines meaningless).
    rtc.liveness.enabled = true;
    rtc.liveness.backoff_after = 2;
    rtc.liveness.boost_after = 3;
    rtc.liveness.serial_after = 4;
    rtc.liveness.backoff_base_us = 0;
    rtc.liveness.deadline_ns = 0;
    rtc.liveness.watchdog_period_ns = 0;
  }

  trace::Recorder recorder(
      {.threads = cfg.threads, .capacity_per_thread = std::size_t{1} << 14});
  rtc.recorder = &recorder;

  VirtualExecutor exec(cfg.threads, policy, cfg.effective_max_steps(), cfg.tick_ns);
  rtc.checker = &exec;

  cm::Params params;
  params.threads = cfg.threads;
  params.window_n = cfg.window_n;
  params.requester_waits = rtc.arbitration == stm::ArbitrationMode::kWait;

  // Destruction order matters: the Runtime must die before the
  // executor/recorder it holds pointers into. It frees every committed node
  // at teardown, including those a seeded bug's lost update orphans, so the
  // set frees none.
  auto set = structs::make_intset(cfg.structure);
  set->disown_nodes();
  stm::Runtime rt(cm::make_manager(cfg.cm, params), rtc);

  std::uint64_t initial = 0;
  if (cfg.prefill) {
    // The main thread is not a virtual thread, so it passes through every
    // schedule point; this runs before the workers exist.
    stm::ThreadCtx& tc = rt.attach_thread();
    for (long k = 0; k < cfg.key_range; k += 2) {
      rt.atomically(tc, [&](stm::Tx& tx) { return set->insert(tx, k); });
      initial |= std::uint64_t{1} << k;
    }
    rt.detach_thread(tc);
    recorder.clear();
  }

  std::vector<std::vector<OpSpec>> program;
  program.reserve(cfg.threads);
  for (unsigned vid = 0; vid < cfg.threads; ++vid) {
    program.push_back(make_ops(cfg, static_cast<int>(vid)));
  }

  HistoryRecorder hist;
  std::vector<std::thread> workers;
  workers.reserve(cfg.threads);
  for (unsigned vid = 0; vid < cfg.threads; ++vid) {
    workers.emplace_back([&, vid] {
      exec.register_thread(static_cast<int>(vid));
      // Attached while holding the token, so slot assignment follows the
      // grant order and replays deterministically.
      stm::ThreadCtx& tc = rt.attach_thread();
      for (const OpSpec& op : program[vid]) {
        run_op(rt, tc, *set, hist, static_cast<int>(vid), op);
      }
      exec.thread_done();
      // Stay attached: metrics are read after the join; the Runtime
      // destructor retires the context.
    });
  }
  for (std::thread& w : workers) w.join();

  rr.steps = exec.steps();
  rr.over_budget = exec.over_budget();
  rr.schedule.decisions = exec.log();
  rr.metrics = rt.total_metrics();
  if (const resilience::LivenessManager* lm = rt.liveness()) {
    const resilience::LivenessManager::Stats ls = lm->stats();
    rr.token_acquisitions = ls.token_acquisitions;
    rr.max_token_holders = ls.max_token_holders;
    rr.token_overlap_violations = ls.token_overlap_violations;
  }
  if (const auto* rp = dynamic_cast<const ReplayPolicy*>(&policy)) {
    rr.divergences = rp->divergences();
  }

  const std::uint64_t final_mask = mask_of(set->quiescent_elements());
  const LinearizabilityResult lin =
      check_linearizable(hist.take(), initial, final_mask, cfg.key_range);
  if (!lin.ok) {
    rr.violation = true;
    rr.diagnosis = "linearizability: " + lin.diagnosis;
  }

  // Ghost opacity oracle: a torn invisible-read snapshot is a violation even
  // when the committed history still linearizes (commit-time validation
  // usually aborts the victim before its stale view reaches the history —
  // exactly why skip_cas_recheck-class bugs need this oracle, not the
  // history check).
  if (const std::uint64_t ov = exec.opacity_violations()) {
    rr.violation = true;
    if (!rr.diagnosis.empty()) rr.diagnosis += "\n";
    const char* what = exec.first_opacity_violation();
    rr.diagnosis += "opacity: " + std::to_string(ov) + " ghost-check failure(s): " +
                    (what != nullptr ? what : "(unknown)");
  }

  // Requester-waits deadlock-freedom oracle: the executor observed a state
  // where every runnable thread was parked on a descriptor with no unpark
  // edge left to fire — a lost wakeup (a commit/abort path skipped its
  // signal_status_change) or a cycle of parked descriptors.
  if (const std::uint64_t pd = exec.park_deadlocks()) {
    rr.violation = true;
    if (!rr.diagnosis.empty()) rr.diagnosis += "\n";
    rr.diagnosis += "park-deadlock: " + std::to_string(pd) +
                    " state(s) with every runnable thread parked and no unpark edge "
                    "pending (lost wakeup or park cycle)";
  }

  if (cm::is_window_manager(cfg.cm)) {
    bool dropped = false;
    for (unsigned s = 0; s < recorder.threads(); ++s) dropped |= recorder.dropped(s) > 0;
    if (!dropped) {
      const trace::CheckResult cr = trace::ScheduleChecker::check(recorder.drain_sorted());
      if (!cr.ok()) {
        rr.violation = true;
        if (!rr.diagnosis.empty()) rr.diagnosis += "\n";
        rr.diagnosis += "window invariants: " + cr.to_string();
      }
    }
  }

  if (rr.violation && rr.over_budget) {
    rr.diagnosis +=
        "\n(note: step budget was exhausted mid-run; this schedule may not replay "
        "deterministically)";
  }
  return rr;
}

RunResult Checker::run_once(std::uint64_t schedule_seed) {
  if (config_.strategy == "pct") {
    PctPolicy policy(schedule_seed, config_.faults, config_.threads, config_.pct_depth,
                     config_.estimated_steps());
    return run_with_policy(policy, config_);
  }
  if (config_.strategy != "random") {
    throw std::invalid_argument("unknown strategy \"" + config_.strategy + "\" (random|pct)");
  }
  RandomWalkPolicy policy(schedule_seed, config_.faults);
  return run_with_policy(policy, config_);
}

RunResult Checker::replay(const Schedule& schedule) {
  ReplayPolicy policy(schedule.decisions);
  return run_with_policy(policy, schedule.config);
}

ExploreResult Checker::explore(unsigned num_schedules, bool stop_on_violation) {
  ExploreResult er;
  for (unsigned i = 0; i < num_schedules; ++i) {
    RunResult r = run_once(derive_policy_seed(config_.seed, i));
    ++er.schedules_run;
    if (r.violation) {
      ++er.violations;
      if (er.violations == 1) er.first_violation = std::move(r);
      if (stop_on_violation) break;
    }
  }
  return er;
}

Checker::ShrinkResult Checker::shrink(const Schedule& failing, unsigned max_replays) {
  ShrinkResult sr;
  auto fails = [&](const Schedule& cand) -> bool {
    if (sr.replays >= max_replays) return false;
    ++sr.replays;
    return replay(cand).violation;
  };

  Schedule best = failing;
  if (!fails(best)) {
    sr.schedule = std::move(best);
    return sr;  // still_fails = false: nothing to shrink
  }
  sr.still_fails = true;

  // Pass A: drop injected faults one at a time (fewer faults = simpler
  // repro; many are incidental noise from the exploration policy).
  for (std::size_t i = 0; i < best.decisions.size(); ++i) {
    if (best.decisions[i].action == Action::kProceed) continue;
    Schedule cand = best;
    cand.decisions[i].action = Action::kProceed;
    if (fails(cand)) best = std::move(cand);
  }

  // Pass B: shortest failing prefix (replay deterministically pads past the
  // log's end with run-to-completion, so a prefix is a complete schedule).
  {
    std::size_t lo = 0;
    std::size_t hi = best.decisions.size();  // invariant: prefix of hi fails
    while (lo < hi && sr.replays < max_replays) {
      const std::size_t mid = lo + (hi - lo) / 2;
      Schedule cand;
      cand.config = best.config;
      cand.decisions.assign(best.decisions.begin(),
                            best.decisions.begin() + static_cast<std::ptrdiff_t>(mid));
      if (fails(cand)) {
        best = std::move(cand);
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
  }

  // Pass C: single-decision deletion sweep, back to front (later decisions
  // are the cheapest to drop after truncation).
  for (std::size_t i = best.decisions.size(); i-- > 0 && sr.replays < max_replays;) {
    Schedule cand = best;
    cand.decisions.erase(cand.decisions.begin() + static_cast<std::ptrdiff_t>(i));
    if (fails(cand)) best = std::move(cand);
  }

  sr.schedule = std::move(best);
  return sr;
}

}  // namespace wstm::check
