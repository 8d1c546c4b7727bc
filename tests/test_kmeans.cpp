// Tests for the kmeans extension workload (harness/kmeans.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "harness/kmeans.hpp"
#include "harness/runner.hpp"

namespace wstm::harness {
namespace {

TEST(KMeans, RejectsBadConfig) {
  KMeansConfig cfg;
  cfg.dims = 0;
  EXPECT_THROW(KMeansWorkload{cfg}, std::invalid_argument);
  cfg.dims = 9;
  EXPECT_THROW(KMeansWorkload{cfg}, std::invalid_argument);
  cfg.dims = 4;
  cfg.clusters = 0;
  EXPECT_THROW(KMeansWorkload{cfg}, std::invalid_argument);
}

TEST(KMeans, SingleThreadedAssignmentsBalance) {
  KMeansConfig cfg;
  cfg.clusters = 4;
  cfg.points = 256;
  KMeansWorkload w(cfg);
  cm::Params params;
  params.threads = 1;
  stm::Runtime rt(cm::make_manager("Polka", params));
  stm::ThreadCtx& tc = rt.attach_thread();
  w.populate(rt, tc);
  Xoshiro256 rng(1);
  for (int i = 0; i < 500; ++i) w.run_one(rt, tc, rng);
  std::string why;
  EXPECT_TRUE(w.validate(&why)) << why;
}

TEST(KMeans, CentroidsStayInUnitCube) {
  KMeansConfig cfg;
  cfg.clusters = 3;
  KMeansWorkload w(cfg);
  cm::Params params;
  params.threads = 1;
  stm::Runtime rt(cm::make_manager("Greedy", params));
  stm::ThreadCtx& tc = rt.attach_thread();
  w.populate(rt, tc);
  Xoshiro256 rng(2);
  for (int i = 0; i < 300; ++i) w.run_one(rt, tc, rng);
  for (std::uint32_t k = 0; k < cfg.clusters; ++k) {
    for (const double x : w.quiescent_centroid(k)) {
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, 1.0);
    }
  }
}

TEST(KMeans, ConcurrentAssignmentsAreConserved) {
  constexpr unsigned kThreads = 4;
  KMeansConfig cfg;
  cfg.clusters = 2;  // hot
  KMeansWorkload w(cfg);
  cm::Params params;
  params.threads = kThreads;
  stm::Runtime rt(cm::make_manager("Online-Dynamic", params));
  {
    stm::ThreadCtx& tc = rt.attach_thread();
    w.populate(rt, tc);
    rt.detach_thread(tc);
  }
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      stm::ThreadCtx& tc = rt.attach_thread();
      Xoshiro256 rng(t + 3);
      for (int i = 0; i < 300; ++i) w.run_one(rt, tc, rng);
    });
  }
  for (auto& worker : workers) worker.join();
  std::string why;
  EXPECT_TRUE(w.validate(&why)) << why;
  EXPECT_EQ(rt.total_metrics().commits, static_cast<std::uint64_t>(kThreads) * 300);
}

TEST(KMeans, FactoryMapsUpdatePercentToHotness) {
  EXPECT_EQ(make_workload("kmeans", 100)->name(), "kmeans");
  EXPECT_EQ(make_workload("kmeans", 20)->name(), "kmeans");
}

TEST(KMeans, RunsThroughTheHarness) {
  RunConfig cfg;
  cfg.threads = 2;
  cfg.duration_ms = 80;
  const RunResult r = run_workload("Adaptive", cm::Params{}, *make_workload("kmeans", 100), cfg);
  EXPECT_TRUE(r.valid) << r.why;
  EXPECT_GT(r.totals.commits, 0u);
}

}  // namespace
}  // namespace wstm::harness
