// Ablation: visible vs invisible reads (DSTM2's two read modes — the paper
// ran with visible reads). Visible readers pay a bitmap CAS per object and
// get aborted eagerly by writers; invisible readers pay read-set
// validation, amortized O(1) per open by the deferred commit clock
// (DESIGN.md §11) but a full pass whenever a fresh commit stamp trips it.
#include <iostream>

#include "harness/runner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wstm;
  Cli cli;
  cli.add_flag("benchmarks", "comma-separated benchmarks",
               std::string("list,rbtree,skiplist,hashtable"));
  cli.add_flag("cms", "comma-separated contention managers",
               std::string("Online-Dynamic,Polka"));
  cli.add_flag("threads", "worker threads M", static_cast<std::int64_t>(8));
  cli.add_flag("ms", "measured milliseconds per run", static_cast<std::int64_t>(300));
  cli.add_flag("runs", "repetitions per point", static_cast<std::int64_t>(1));
  cli.add_flag("key-range", "int-set key range", static_cast<std::int64_t>(256));
  cli.add_flag("seed", "base RNG seed", static_cast<std::int64_t>(42));
  cli.add_flag("csv", "emit CSV", false);
  if (!cli.parse(argc, argv)) return 1;

  harness::RunConfig base;
  base.threads = static_cast<std::uint32_t>(cli.get_int("threads"));
  base.duration_ms = cli.get_int("ms");
  base.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto runs = static_cast<unsigned>(cli.get_int("runs"));
  const long key_range = cli.get_int("key-range");

  std::cout << "== Ablation: visible vs invisible reads (M=" << base.threads << ") ==\n\n";
  bool all_valid = true;
  Table table({"benchmark", "CM", "visible tput", "invisible tput", "visible a/c",
               "invisible a/c"});
  for (const std::string& benchmark : cli.get_string_list("benchmarks")) {
    for (const std::string& cm_name : cli.get_string_list("cms")) {
      harness::RepeatedResult results[2];
      for (int mode = 0; mode < 2; ++mode) {
        harness::RunConfig cfg = base;
        cfg.runtime.visible_reads = mode == 0;
        std::fprintf(stderr, "[%s] %s %s ...\n", benchmark.c_str(), cm_name.c_str(),
                     cfg.runtime.visible_reads ? "visible" : "invisible");
        results[mode] = harness::run_repeated(
            cm_name, cm::Params{},
            [&] { return harness::make_workload(benchmark, 100, key_range); }, cfg, runs);
        if (!results[mode].valid) {
          all_valid = false;
          std::fprintf(stderr, "VALIDATION FAILED: %s\n", results[mode].why.c_str());
        }
      }
      table.add_row({benchmark, cm_name, Table::num(results[0].mean_throughput, 0),
                     Table::num(results[1].mean_throughput, 0),
                     Table::num(results[0].mean_aborts_per_commit, 3),
                     Table::num(results[1].mean_aborts_per_commit, 3)});
    }
  }
  std::cout << (cli.get_bool("csv") ? table.to_csv() : table.to_text());
  return all_valid ? 0 : 2;
}
