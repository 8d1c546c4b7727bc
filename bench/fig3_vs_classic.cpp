// Figure 3: throughput of the best window variants (Online-Dynamic,
// Adaptive-Improved-Dynamic) against Polka, Greedy and Priority on the four
// benchmarks over M = 1..32 threads.
//
// Expected shape (paper Section III-B): window variants beat Greedy by
// ~2-4x on List, ~2-3x on RBTree, ~2x on Vacation; comparable to Polka
// everywhere except Vacation (window wins); SkipList slightly behind Polka.
#include <iostream>

#include "harness/report.hpp"

int main(int argc, char** argv) {
  using namespace wstm;
  Cli cli;
  harness::register_matrix_flags(
      cli, /*benchmarks=*/"list,rbtree,skiplist,vacation",
      /*cms=*/"Online-Dynamic,Adaptive-Improved-Dynamic,Polka,Greedy,Priority",
      /*threads=*/"1,2,4,8,16,32,64", /*ms=*/400, /*runs=*/1);
  if (!cli.parse(argc, argv)) return 1;
  const harness::MatrixSpec spec = harness::matrix_from_cli(cli);
  std::cout << "== Fig. 3: window variants vs Polka/Greedy/Priority, throughput ==\n\n";
  const bool ok = harness::run_matrix_and_print(spec, {harness::kThroughput}, std::cout);
  return ok ? 0 : 2;
}
