// Figure 2: throughput of the window-based variants (Online,
// Online-Dynamic, Adaptive, Adaptive-Improved, Adaptive-Improved-Dynamic)
// on List, RBTree, SkipList and Vacation over M = 1..32 threads, N = 50.
//
// Paper settings: --ms=10000 --runs=6 (defaults here are scaled down so the
// whole suite finishes quickly on a small host; the shape is unaffected).
#include <iostream>

#include "harness/report.hpp"

int main(int argc, char** argv) {
  using namespace wstm;
  Cli cli;
  harness::register_matrix_flags(
      cli, /*benchmarks=*/"list,rbtree,skiplist,vacation",
      /*cms=*/"Online,Online-Dynamic,Adaptive,Adaptive-Improved,Adaptive-Improved-Dynamic",
      /*threads=*/"1,2,4,8,16,32,64", /*ms=*/400, /*runs=*/1);
  if (!cli.parse(argc, argv)) return 1;
  const harness::MatrixSpec spec = harness::matrix_from_cli(cli);
  std::cout << "== Fig. 2: window-based variants, throughput ==\n\n";
  const bool ok = harness::run_matrix_and_print(spec, {harness::kThroughput}, std::cout);
  return ok ? 0 : 2;
}
