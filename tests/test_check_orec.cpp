// Deterministic-checker coverage for the orec backend (ISSUE 8 satellites):
// schedule points on the commit-time lock CAS and read-set validation, the
// six-variant window-CM decision parity, orec opacity under exploration, the
// seeded skip-read-validation bug with replay + shrink coverage, and the
// schedule file's backend key round-trip.
#include <gtest/gtest.h>

#include <string>

#include "check/checker.hpp"
#include "check/hooks.hpp"
#include "check/schedule.hpp"

namespace wstm::check {
namespace {

CheckConfig orec_check_config(const std::string& cm) {
  CheckConfig c;
  c.backend = "orec";
  c.threads = 3;
  c.ops_per_thread = 16;
  c.key_range = 16;
  c.window_n = 6;
  c.cm = cm;
  c.seed = 12345;
  return c;
}

// Same policy seed -> bit-identical decisions, twice in a row, for every
// window variant on the orec backend. This is the PR 5 run_once identity
// property carried to the new engine: nothing in the orec commit path
// (first-touch orec ids, address-ordered lock acquisition, validation
// arbitration) may leak run-to-run nondeterminism into CM decisions.
TEST(OrecChecker, WindowVariantDecisionsAreDeterministic) {
  for (const char* cm :
       {"Online", "Online-Dynamic", "Adaptive", "Adaptive-Dynamic", "Adaptive-Improved",
        "Adaptive-Improved-Dynamic"}) {
    const CheckConfig c = orec_check_config(cm);
    for (const std::uint64_t policy_seed : {1u, 2u, 3u}) {
      const RunResult a = Checker(c).run_once(policy_seed);
      const RunResult b = Checker(c).run_once(policy_seed);
      EXPECT_FALSE(a.violation) << cm << ": " << a.diagnosis;
      EXPECT_EQ(a.schedule.decisions, b.schedule.decisions) << cm;
      EXPECT_EQ(a.metrics.commits, b.metrics.commits) << cm;
      EXPECT_EQ(a.metrics.aborts, b.metrics.aborts) << cm;
      EXPECT_GT(a.metrics.commits, 0u) << cm;
    }
  }
}

// The orec engine ignores the visible_reads flag (its reads are always
// timestamp-validated). Flipping the flag must change nothing at all.
TEST(OrecChecker, VisibleReadsFlagIsInertOnOrec) {
  CheckConfig vis = orec_check_config("Adaptive-Improved");
  vis.visible_reads = true;
  CheckConfig invis = vis;
  invis.visible_reads = false;
  const RunResult a = Checker(vis).run_once(2);
  const RunResult b = Checker(invis).run_once(2);
  EXPECT_FALSE(a.violation) << a.diagnosis;
  EXPECT_EQ(a.schedule.decisions, b.schedule.decisions);
  EXPECT_EQ(a.metrics.commits, b.metrics.commits);
  EXPECT_EQ(a.metrics.aborts, b.metrics.aborts);
}

// Clean-protocol exploration across all six window variants: zero oracle
// violations (linearizability against the ghost sequential set AND the
// engine's own opacity ghost check in open_read), and the new schedule
// points must actually be exercised — a run that never parks at orec-lock
// or orec-validate is not testing the commit protocol.
TEST(OrecChecker, ExplorationIsCleanOnAllWindowVariants) {
  for (const char* cm :
       {"Online", "Online-Dynamic", "Adaptive", "Adaptive-Dynamic", "Adaptive-Improved",
        "Adaptive-Improved-Dynamic"}) {
    Checker checker(orec_check_config(cm));
    const ExploreResult er = checker.explore(8);
    EXPECT_EQ(er.violations, 0u)
        << cm << ": " << er.first_violation.diagnosis;
    EXPECT_EQ(er.schedules_run, 8u) << cm;
  }
}

// An orec attempt arbitrates without publishing its descriptor (DESIGN.md
// §5). Greedy writes the requester's `waiting` flag and, in wait mode,
// parks it on the lock holder, so an unpublished reader waits and is woken
// through its enemy alone. Exploration must stay clean in both modes.
TEST(OrecChecker, GreedyExplorationIsCleanInBothModes) {
  for (const char* mode : {"abort", "wait"}) {
    CheckConfig c = orec_check_config("Greedy");
    c.arbitration = mode;
    c.key_range = 12;  // contended: lock-holder conflicts are common
    Checker checker(c);
    const ExploreResult er = checker.explore(8);
    EXPECT_EQ(er.violations, 0u) << mode << ": " << er.first_violation.diagnosis;
    EXPECT_EQ(er.schedules_run, 8u) << mode;
  }
}

// Spurious injected aborts at the new points (policy abort_applies covers
// kOrecLock/kOrecValidate) must be survivable: the engine releases held
// commit locks on the injected abort and the run stays clean.
TEST(OrecChecker, InjectedAbortsAtOrecPointsAreSurvivable) {
  CheckConfig c = orec_check_config("Aggressive");
  c.faults.p_abort = 0.05;
  Checker checker(c);
  const ExploreResult er = checker.explore(10);
  EXPECT_EQ(er.violations, 0u) << er.first_violation.diagnosis;
}

// Seeded bug: an orec commit that skips its read-set validation publishes
// writes derived from a possibly-overwritten snapshot. The ghost oracle
// must catch it within the exploration budget, the pinned schedule must
// replay to the same verdict with zero divergence, and shrinking must
// preserve the failure. (Aggressive for the same budget reason as the DSTM
// seeded-bug tests: no karma wait slices under the executor token.)
TEST(OrecChecker, SkipReadValidationBugIsCaughtReplayedAndShrunk) {
  CheckConfig c = orec_check_config("Aggressive");
  c.bug = "skip-read-validation";
  Checker buggy(c);
  const ExploreResult er = buggy.explore(40);
  ASSERT_GE(er.violations, 1u);
  EXPECT_NE(er.first_violation.diagnosis.find("opacity"), std::string::npos)
      << er.first_violation.diagnosis;
  EXPECT_NE(er.first_violation.diagnosis.find("validation"), std::string::npos)
      << er.first_violation.diagnosis;

  Checker replayer(er.first_violation.schedule.config);
  const RunResult again = replayer.replay(er.first_violation.schedule);
  EXPECT_EQ(again.divergences, 0u);
  EXPECT_TRUE(again.violation);

  const Checker::ShrinkResult sr = replayer.shrink(er.first_violation.schedule, 300);
  ASSERT_TRUE(sr.still_fails);
  EXPECT_LE(sr.schedule.decisions.size(), er.first_violation.schedule.decisions.size());
  const RunResult min_run = Checker(sr.schedule.config).replay(sr.schedule);
  EXPECT_TRUE(min_run.violation);

  // The clean protocol survives the identical budget.
  CheckConfig clean = orec_check_config("Aggressive");
  Checker ok(clean);
  EXPECT_EQ(ok.explore(40).violations, 0u);
}

// The schedule file carries the backend, so `wstm-check replay fail.sched`
// reconstructs an orec run with no extra flags; files from before the
// backend key default to dstm.
TEST(OrecChecker, ScheduleTextRoundTripsBackend) {
  Checker checker(orec_check_config("Online"));
  const RunResult r = checker.run_once(1);
  const std::string text = to_text(r.schedule);
  EXPECT_NE(text.find("backend orec"), std::string::npos);
  const Schedule parsed = schedule_from_text(text);
  EXPECT_EQ(parsed.config.backend, "orec");
  EXPECT_EQ(parsed.decisions, r.schedule.decisions);

  const RunResult again = Checker(parsed.config).replay(parsed);
  EXPECT_EQ(again.divergences, 0u);

  // Back-compat: a pre-backend file (no key) parses as dstm.
  std::string legacy = text;
  const std::size_t pos = legacy.find("backend orec\n");
  ASSERT_NE(pos, std::string::npos);
  legacy.erase(pos, std::string("backend orec\n").size());
  EXPECT_EQ(schedule_from_text(legacy).config.backend, "dstm");
}

// The new points are wired into the diagnostics name table.
TEST(OrecChecker, PointNamesCoverOrecPoints) {
  EXPECT_STREQ(point_name(Point::kOrecLock), "orec-lock");
  EXPECT_STREQ(point_name(Point::kOrecValidate), "orec-validate");
}

}  // namespace
}  // namespace wstm::check
