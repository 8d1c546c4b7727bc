// Figure 5: total time to commit a fixed number of transactions at 32
// threads under Low (20% updates), Medium (60%) and High (100%) contention
// on the four benchmarks.
//
// Paper settings: --commits=20000 --threads=32. Expected shape (Section
// III-D): window variants need less time than Greedy/Priority on List and
// RBTree; on SkipList the window overhead (randomized delays + adaptive
// guessing) shows as 2-3x extra time under low contention and fades as
// contention rises; Vacation beats Polka/Greedy, comparable to Priority.
#include <iostream>

#include "harness/report.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wstm;
  Cli cli;
  cli.add_flag("benchmarks", "comma-separated benchmarks",
               std::string("list,rbtree,skiplist,vacation"));
  cli.add_flag("cms", "comma-separated contention managers",
               std::string("Online-Dynamic,Adaptive-Improved-Dynamic,Polka,Greedy,Priority"));
  cli.add_flag("threads", "worker threads M (paper: 32)", static_cast<std::int64_t>(32));
  cli.add_flag("commits", "transactions to commit per run (paper: 20000)",
               static_cast<std::int64_t>(4000));
  cli.add_flag("updates", "comma-separated update percentages",
               std::string("20,60,100"));
  cli.add_flag("runs", "repetitions per point", static_cast<std::int64_t>(1));
  cli.add_flag("key-range", "int-set key range", static_cast<std::int64_t>(256));
  cli.add_flag("window-n", "window length N", static_cast<std::int64_t>(50));
  cli.add_flag("seed", "base RNG seed", static_cast<std::int64_t>(42));
  cli.add_flag("csv", "emit CSV", false);
  if (!cli.parse(argc, argv)) return 1;

  const auto benchmarks = cli.get_string_list("benchmarks");
  const auto cms = cli.get_string_list("cms");
  const auto updates = cli.get_int_list("updates");

  harness::RunConfig base;
  base.threads = static_cast<std::uint32_t>(cli.get_int("threads"));
  base.fixed_commits = static_cast<std::uint64_t>(cli.get_int("commits"));
  base.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  cm::Params params;
  params.window_n = static_cast<std::uint32_t>(cli.get_int("window-n"));
  const auto runs = static_cast<unsigned>(cli.get_int("runs"));
  const long key_range = cli.get_int("key-range");

  std::cout << "== Fig. 5: time (ms) to commit " << base.fixed_commits << " transactions at M="
            << base.threads << " ==\n\n";
  bool all_valid = true;
  for (const std::string& benchmark : benchmarks) {
    std::vector<std::string> header{"CM \\ update%"};
    for (const auto u : updates) header.push_back(std::to_string(u) + "%");
    Table table(header);
    for (const std::string& cm_name : cms) {
      std::vector<std::string> row{cm_name};
      for (const auto u : updates) {
        std::fprintf(stderr, "[%s] %s update=%lld%% ...\n", benchmark.c_str(), cm_name.c_str(),
                     static_cast<long long>(u));
        const harness::Cell cell =
            harness::repeat(base, runs, [&](const harness::RunConfig& run) {
              auto workload =
                  harness::make_workload(benchmark, static_cast<std::uint32_t>(u), key_range);
              return harness::run_workload(cm_name, params, *workload, run);
            });
        std::string why;
        if (!harness::cell_valid(cell, &why)) {
          all_valid = false;
          std::fprintf(stderr, "VALIDATION FAILED [%s/%s/%lld%%]: %s\n", benchmark.c_str(),
                       cm_name.c_str(), static_cast<long long>(u), why.c_str());
        }
        row.push_back(harness::format_mean(cell, harness::kElapsedMs));
      }
      table.add_row(std::move(row));
    }
    std::cout << "# " << benchmark << " — total time (ms), lower is better\n"
              << (cli.get_bool("csv") ? table.to_csv() : table.to_text()) << "\n";
  }
  return all_valid ? 0 : 2;
}
