// Theory validation (extension, not a paper figure): empirical makespans of
// the simulated Offline and Online window algorithms against the bounds of
// Theorems 2.1 and 2.3:
//
//   Offline:  makespan = O(tau (C + N log MN))
//   Online:   makespan = O(tau (C log MN + N log^2 MN))
//
// The Offline algorithm needs the conflict graph and was therefore not
// runnable in the paper's DSTM2 experiments — the simulator makes it
// measurable. The `ratio` column (makespan / bound) should stay bounded by
// a small constant as contention C grows; the one-shot baseline degrades.
#include <iostream>

#include "sim/experiment.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace wstm;

void run_section(const std::string& title, bool columnar, std::uint32_t m, std::uint32_t n,
                 const std::vector<std::int64_t>& pools, std::uint32_t accesses, unsigned runs,
                 std::uint64_t seed, bool csv) {
  Table table({"pool", "C", "scheduler", "makespan", "bound", "ratio", "aborts/commit"});
  for (const auto pool : pools) {
    const sim::SimWindow w =
        columnar
            ? sim::make_columnar_window(m, n, static_cast<std::uint32_t>(pool), accesses, seed)
            : sim::make_random_window(m, n, static_cast<std::uint32_t>(pool), accesses, seed);
    const sim::ConflictGraph g(w);
    const std::uint32_t c = g.max_degree();

    struct Case {
      sim::SchedulerOptions opt;
      double bound;
    };
    sim::SchedulerOptions offline;
    offline.mode = sim::SchedulerOptions::Mode::kOffline;
    sim::SchedulerOptions online;
    online.mode = sim::SchedulerOptions::Mode::kOnline;
    sim::SchedulerOptions oneshot;
    oneshot.mode = sim::SchedulerOptions::Mode::kOneshotRR;
    const Case cases[] = {
        {offline, sim::offline_bound(m, n, c)},
        {online, sim::online_bound(m, n, c)},
        {oneshot, sim::online_bound(m, n, c)},  // reference bound for comparison
    };
    for (const Case& r : cases) {
      const sim::AveragedSim avg = sim::average_runs(w, g, r.opt, runs, seed + 1);
      table.add_row({std::to_string(pool), std::to_string(c), sim::scheduler_name(r.opt),
                     Table::num(avg.makespan, 1), Table::num(r.bound, 1),
                     Table::num(avg.makespan / r.bound, 3),
                     Table::num(avg.aborts_per_commit, 2)});
    }
  }
  std::cout << "# " << title << "\n" << (csv ? table.to_csv() : table.to_text()) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_flag("m", "threads M", static_cast<std::int64_t>(16));
  cli.add_flag("n", "transactions per thread N", static_cast<std::int64_t>(16));
  cli.add_flag("column-pools", "per-column resource pool sizes (small = contended)",
               std::string("2,8,64"));
  cli.add_flag("global-pools", "global resource pool sizes for the random windows",
               std::string("4,16,64,256"));
  cli.add_flag("accesses", "resources accessed per transaction", static_cast<std::int64_t>(2));
  cli.add_flag("runs", "repetitions per point", static_cast<std::int64_t>(5));
  cli.add_flag("seed", "workload seed", static_cast<std::int64_t>(7));
  cli.add_flag("csv", "emit CSV", false);
  if (!cli.parse(argc, argv)) return 1;

  const auto m = static_cast<std::uint32_t>(cli.get_int("m"));
  const auto n = static_cast<std::uint32_t>(cli.get_int("n"));
  const auto accesses = static_cast<std::uint32_t>(cli.get_int("accesses"));
  const auto runs = static_cast<unsigned>(cli.get_int("runs"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const bool csv = cli.get_bool("csv");

  std::cout << "== Theorems 2.1 / 2.3: simulated makespan vs bound (M=" << m << ", N=" << n
            << ") ==\n"
            << "(ratio = measured makespan / theoretical bound with constant 1;\n"
            << " the theorems assert the ratio stays below a fixed constant as C grows)\n\n";

  // The favorable case the paper motivates: conflicts confined to columns.
  // Free-running threads self-stagger, so all schedulers finish in about
  // N + M steps regardless of C — far below the bound.
  run_section("columnar windows (conflicts within a column only)", /*columnar=*/true, m, n,
              cli.get_int_list("column-pools"), accesses, runs, seed, csv);

  // The adversarial case: one global pool, conflicts across the entire
  // window, so contention persists for the whole run and the bound is
  // actually exercised.
  run_section("random windows (global pool, cross-column conflicts)", /*columnar=*/false, m, n,
              cli.get_int_list("global-pools"), accesses, runs, seed, csv);
  return 0;
}
