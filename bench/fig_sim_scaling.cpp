// Virtual-time scaling shapes (substitution for the paper's 4-core host;
// see DESIGN.md §2): the Fig. 2/3-style comparison in the discrete-time
// simulator, where M = 1..64 threads run at full parallelism regardless of
// how many hardware threads this machine has.
//
// Reported per M: virtual throughput (commits per step) and aborts/commit
// for the simulated window schedulers, the one-shot RandomizedRounds
// baseline and the Greedy-style oldest-first baseline.
#include <iostream>

#include "sim/experiment.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wstm;
  Cli cli;
  cli.add_flag("threads", "comma-separated M values", std::string("1,2,4,8,16,32,64"));
  cli.add_flag("n", "transactions per thread N (paper: 50)", static_cast<std::int64_t>(50));
  cli.add_flag("resources", "global resource pool size", static_cast<std::int64_t>(64));
  cli.add_flag("accesses", "resources per transaction", static_cast<std::int64_t>(2));
  cli.add_flag("runs", "repetitions per point", static_cast<std::int64_t>(3));
  cli.add_flag("seed", "workload seed", static_cast<std::int64_t>(5));
  cli.add_flag("csv", "emit CSV", false);
  if (!cli.parse(argc, argv)) return 1;

  const auto n = static_cast<std::uint32_t>(cli.get_int("n"));
  const auto resources = static_cast<std::uint32_t>(cli.get_int("resources"));
  const auto accesses = static_cast<std::uint32_t>(cli.get_int("accesses"));
  const auto runs = static_cast<unsigned>(cli.get_int("runs"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  sim::SchedulerOptions schedulers[5];
  schedulers[0].mode = sim::SchedulerOptions::Mode::kOffline;
  schedulers[1].mode = sim::SchedulerOptions::Mode::kOnline;
  schedulers[2].mode = sim::SchedulerOptions::Mode::kOnline;
  schedulers[2].dynamic_frames = true;
  schedulers[3].mode = sim::SchedulerOptions::Mode::kOneshotRR;
  schedulers[4].mode = sim::SchedulerOptions::Mode::kGreedyTimestamp;

  std::cout << "== Virtual-time scaling (simulator), N=" << n << " ==\n\n";

  const auto thread_list = cli.get_int_list("threads");
  std::vector<std::string> header{"scheduler \\ M"};
  for (const auto m : thread_list) header.push_back(std::to_string(m));
  Table tput(header);
  Table aborts(header);

  for (const auto& opt : schedulers) {
    std::vector<std::string> trow{sim::scheduler_name(opt)};
    std::vector<std::string> arow{sim::scheduler_name(opt)};
    for (const auto m64 : thread_list) {
      const auto m = static_cast<std::uint32_t>(m64);
      const sim::SimWindow w = sim::make_random_window(m, n, resources, accesses, seed);
      const sim::ConflictGraph g(w);
      const sim::AveragedSim avg = sim::average_runs(w, g, opt, runs, seed + m);
      trow.push_back(Table::num(avg.throughput, 3));
      arow.push_back(Table::num(avg.aborts_per_commit, 2));
    }
    tput.add_row(std::move(trow));
    aborts.add_row(std::move(arow));
  }

  const bool csv = cli.get_bool("csv");
  std::cout << "# virtual throughput (commits per step), higher is better\n"
            << (csv ? tput.to_csv() : tput.to_text()) << "\n"
            << "# aborts per commit, lower is better\n"
            << (csv ? aborts.to_csv() : aborts.to_text());
  return 0;
}
