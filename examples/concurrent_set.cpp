// Concurrent transactional set demo: pick a data structure and a contention
// manager from the command line, hammer the set from several threads, and
// print the paper's metrics (throughput, aborts/commit, wasted work).
//
//   ./build/examples/concurrent_set --structure=rbtree --cm=Polka --threads=8
//   ./build/examples/concurrent_set --cm=Online-Dynamic --update-percent=20
#include <cstdio>
#include <iostream>

#include "harness/runner.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace wstm;

  Cli cli;
  cli.add_flag("structure", "list | rbtree | skiplist", std::string("list"));
  std::string cm_help = "contention manager, one of:";
  for (const auto& name : cm::manager_names()) cm_help += " " + name;
  cli.add_flag("cm", cm_help, std::string("Online-Dynamic"));
  cli.add_flag("threads", "worker threads", static_cast<std::int64_t>(4));
  cli.add_flag("seconds", "run duration", 1.0);
  cli.add_flag("key-range", "keys drawn from [0, range)", static_cast<std::int64_t>(256));
  cli.add_flag("update-percent", "percent of insert/remove transactions",
               static_cast<std::int64_t>(100));
  if (!cli.parse(argc, argv)) return 1;

  harness::RunConfig cfg;
  cfg.threads = static_cast<std::uint32_t>(cli.get_int("threads"));
  cfg.duration_ms = static_cast<std::int64_t>(cli.get_double("seconds") * 1000.0);

  auto workload = harness::make_workload(
      cli.get_string("structure"), static_cast<std::uint32_t>(cli.get_int("update-percent")),
      cli.get_int("key-range"));

  std::printf("running %s with %s on %u threads for %.1fs...\n",
              cli.get_string("structure").c_str(), cli.get_string("cm").c_str(), cfg.threads,
              static_cast<double>(cfg.duration_ms) / 1000.0);

  const harness::RunResult r =
      harness::run_workload(cli.get_string("cm"), cm::Params{}, *workload, cfg);

  std::printf("  %s\n", r.summary.to_string(r.totals).c_str());
  std::printf("  structure valid after run: %s%s%s\n", r.valid ? "yes" : "NO",
              r.valid ? "" : " — ", r.why.c_str());
  return r.valid ? 0 : 1;
}
