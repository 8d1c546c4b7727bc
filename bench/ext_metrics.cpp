// Extension: the additional performance measures the paper's conclusion
// defers to future work — wasted work (fraction of execution time spent in
// attempts that aborted) and mean response time of committed transactions
// (first attempt begin -> commit, including retries). The runtime already
// collects both per thread; this bench reports them across the same
// CM x benchmark x threads matrix as Figs. 3/4.
//
// Expected relationship (paper Section IV): aborts/commit, wasted work and
// repeat conflicts are correlated — managers that reduce aborts via the
// window randomization should show proportionally less wasted work and
// smaller response-time tails.
#include <iostream>

#include "harness/report.hpp"

int main(int argc, char** argv) {
  using namespace wstm;
  Cli cli;
  harness::register_matrix_flags(
      cli, /*benchmarks=*/"list,rbtree,skiplist,vacation",
      /*cms=*/"Online-Dynamic,Adaptive-Improved-Dynamic,Polka,Greedy,Priority",
      /*threads=*/"4,16,32,64", /*ms=*/300, /*runs=*/1);
  if (!cli.parse(argc, argv)) return 1;
  const harness::MatrixSpec spec = harness::matrix_from_cli(cli);

  // One run per cell: the three tables read the same records.
  std::cout << "== Extension: wasted-work fraction, mean response time (us, committed "
               "transactions), repeat conflicts per commit ==\n\n";
  const bool ok = harness::run_matrix_and_print(
      spec,
      {harness::kWastedFraction, harness::kResponseUs, harness::kRepeatConflictsPerCommit},
      std::cout);
  return ok ? 0 : 2;
}
