// Figure 4: aborts per commit for the window variants and the classic
// managers on the four benchmarks over M = 1..32 threads.
//
// Expected shape (paper Section III-C): window variants show 2-10x fewer
// aborts/commit than Greedy and Priority on List/RBTree/Vacation, within
// 1-3x of Polka; SkipList is flat for every manager (low conflict rate).
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
  std::cout << "== Fig. 4: aborts per commit ==\n\n";
  const bool ok =
      harness::run_matrix_and_print(spec, {harness::kAbortsPerCommit}, std::cout);
  return ok ? 0 : 2;
}
