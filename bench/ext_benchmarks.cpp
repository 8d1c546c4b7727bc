// Extension benchmarks beyond the paper's four: kmeans (from the paper's
// future-work list: wide read sets over all K centroids, one hot write;
// update-percent maps to cluster hotness — 100 -> K=4, 60 -> K=8, else 16)
// and hashtable (point contention without traversal chains, the substrate
// STAMP's genome uses).
#include <iostream>

#include "harness/report.hpp"

int main(int argc, char** argv) {
  using namespace wstm;
  Cli cli;
  harness::register_matrix_flags(
      cli, /*benchmarks=*/"kmeans,hashtable",
      /*cms=*/"Online-Dynamic,Adaptive-Improved-Dynamic,Polka,Greedy,Priority",
      /*threads=*/"1,4,16,32,64", /*ms=*/300, /*runs=*/1);
  if (!cli.parse(argc, argv)) return 1;
  const harness::MatrixSpec spec = harness::matrix_from_cli(cli);
  std::cout << "== Extension benchmarks: kmeans, hashtable ==\n\n";
  const bool ok = harness::run_matrix_and_print(
      spec, {harness::kThroughput, harness::kAbortsPerCommit}, std::cout);
  return ok ? 0 : 2;
}
