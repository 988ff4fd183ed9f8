// Tests for the extension components: latency-tolerance model, bandwidth
// prediction/tuning, the k-way-cut reduction and byte-weighted fusion.
#include <gtest/gtest.h>

#include <cmath>

#include "bwc/fusion/kway_reduction.h"
#include "bwc/fusion/solvers.h"
#include "bwc/graph/random_graphs.h"
#include "bwc/machine/latency_model.h"
#include "bwc/model/measure.h"
#include "bwc/model/prediction.h"
#include "bwc/support/error.h"
#include "bwc/support/prng.h"
#include "bwc/workloads/paper_programs.h"

namespace bwc {
namespace {

// -- Latency model -----------------------------------------------------------

machine::ExecutionProfile streaming_profile() {
  return model::measure(workloads::sec21_read_loop(200000),
                        machine::origin2000_r10k().scaled(16))
      .profile;
}

TEST(LatencyModel, DefaultsCoverEveryBoundary) {
  const auto m = machine::origin2000_r10k();
  const auto lm = machine::default_latency(m);
  EXPECT_EQ(lm.miss_latency_s.size(), m.caches.size());
  for (double l : lm.miss_latency_s) EXPECT_GT(l, 0.0);
  // Memory is the farthest, hence the slowest.
  EXPECT_GT(lm.miss_latency_s.back(), lm.miss_latency_s.front());
}

TEST(LatencyModel, BlockingCacheIsLatencyBound) {
  const auto m = machine::origin2000_r10k();
  const auto lm = machine::default_latency(m);
  const auto p = machine::predict_time_with_latency(streaming_profile(), m, lm);
  EXPECT_FALSE(p.bandwidth_limited);
  EXPECT_GT(p.total_s, p.bandwidth_bound_s);
}

TEST(LatencyModel, ConvergesToBandwidthWall) {
  const auto m = machine::origin2000_r10k();
  const auto lm = machine::default_latency(m);
  const auto profile = streaming_profile();
  const auto sweep = machine::latency_tolerance_sweep(
      profile, m, lm, {1, 2, 4, 8, 64, 1024});
  // Monotone non-increasing, floored at the bandwidth bound.
  for (std::size_t i = 1; i < sweep.size(); ++i)
    EXPECT_LE(sweep[i].total_s, sweep[i - 1].total_s);
  EXPECT_TRUE(sweep.back().bandwidth_limited);
  EXPECT_DOUBLE_EQ(sweep.back().total_s, sweep.back().bandwidth_bound_s);
  // No overlap depth beats the bandwidth bound.
  for (const auto& p : sweep) EXPECT_GE(p.total_s, p.bandwidth_bound_s);
}

TEST(LatencyModel, MissCountsMatchBoundaryBytes) {
  const auto m = machine::origin2000_r10k();
  const auto profile = streaming_profile();
  const auto misses = machine::boundary_miss_counts(m, profile);
  ASSERT_EQ(misses.size(), 2u);
  EXPECT_EQ(misses[0] * m.caches[0].line_bytes,
            profile.boundaries[1].total());
  EXPECT_EQ(misses[1] * m.caches[1].line_bytes,
            profile.boundaries[2].total());
}

TEST(LatencyModel, RejectsBadOverlap) {
  const auto m = machine::origin2000_r10k();
  auto lm = machine::default_latency(m);
  lm.overlap = 0.5;
  EXPECT_THROW(
      machine::predict_time_with_latency(streaming_profile(), m, lm), Error);
}

// -- Prediction / tuning -------------------------------------------------------

TEST(Prediction, RequiredBandwidthScalesWithRatio) {
  const auto m = machine::origin2000_r10k();
  model::ProgramBalance b{"dmxpy", {8.3, 8.3, 8.4}};
  // ratio 10.5 -> needs 10.5x the machine's 320 MB/s.
  EXPECT_NEAR(model::required_memory_bandwidth_mbps(b, m), 10.5 * 320.0, 1.0);
  // A compute-bound program needs no upgrade.
  model::ProgramBalance light{"light", {0.1, 0.1, 0.1}};
  EXPECT_DOUBLE_EQ(model::required_memory_bandwidth_mbps(light, m), 320.0);
}

TEST(Prediction, UpgradeSpeedupSaturates) {
  const auto m = machine::origin2000_r10k().scaled(16);
  const auto profile = streaming_profile();
  const double s2 =
      model::speedup_from_memory_bandwidth(profile, machine::origin2000_r10k(),
                                           2 * 320.0);
  EXPECT_NEAR(s2, 2.0, 0.05);  // memory-bound: 2x bandwidth = 2x speed
  const double s100 = model::speedup_from_memory_bandwidth(
      profile, machine::origin2000_r10k(), 100 * 320.0);
  // Eventually another resource binds; speedup saturates below 100x.
  EXPECT_LT(s100, 20.0);
  EXPECT_GT(s100, s2);
}

TEST(Prediction, TuningReportNamesBindingBoundary) {
  const auto profile = streaming_profile();
  const auto advice =
      model::tuning_report(profile, machine::origin2000_r10k());
  ASSERT_EQ(advice.size(), 3u);
  EXPECT_TRUE(advice.back().binding);  // memory binds a streaming read
  EXPECT_FALSE(advice.front().binding);
  const std::string rendered = model::render_tuning_report(advice);
  EXPECT_NE(rendered.find("Mem-L2"), std::string::npos);
  EXPECT_NE(rendered.find("<- yes"), std::string::npos);
}

// -- k-way cut reduction (paper Section 3.1.3) ------------------------------------

TEST(KWayReduction, MatchesBruteForceOnRandomGraphs) {
  Prng rng(2718);
  for (int trial = 0; trial < 25; ++trial) {
    const auto g = graph::random_undirected(rng, 7, 0.45, 4);
    const std::vector<int> terminals = {0, 3, 6};
    const auto via_fusion = fusion::kway_cut_via_fusion(g, terminals);
    const auto brute = fusion::kway_cut_bruteforce(g, terminals);
    EXPECT_EQ(via_fusion.cut_weight, brute.cut_weight) << "trial " << trial;
    // Terminals separated.
    EXPECT_NE(via_fusion.assignment[0], via_fusion.assignment[3]);
    EXPECT_NE(via_fusion.assignment[0], via_fusion.assignment[6]);
    EXPECT_NE(via_fusion.assignment[3], via_fusion.assignment[6]);
  }
}

TEST(KWayReduction, TwoTerminalsIsMinCut) {
  // For k = 2 the reduction degenerates to ordinary min s-t cut.
  graph::UndirectedGraph g(4);
  g.add_edge(0, 1, 3);
  g.add_edge(1, 3, 2);
  g.add_edge(0, 2, 1);
  g.add_edge(2, 3, 4);
  const auto r = fusion::kway_cut_via_fusion(g, {0, 3});
  EXPECT_EQ(r.cut_weight, 3);  // cut {1->3 (2), 0->2 (1)}
}

TEST(KWayReduction, ValidatesInput) {
  graph::UndirectedGraph g(3);
  EXPECT_THROW(fusion::kway_cut_via_fusion(g, {0}), Error);
  EXPECT_THROW(fusion::kway_cut_via_fusion(g, {0, 0}), Error);
  EXPECT_THROW(fusion::kway_cut_via_fusion(g, {0, 9}), Error);
}

// -- Byte-weighted fusion ----------------------------------------------------------

TEST(WeightedFusion, PrefersKeepingBigArraysWhole) {
  // Three loops; a huge array shared by loops 0 and 2, a small one by all.
  // Unit-cost fusion is indifferent between {0,1},{2} and {0,2},{1}; the
  // weighted objective must keep the huge array in one partition.
  const fusion::FusionGraph g = fusion::graph_from_spec(
      3, {{0, 2}, {0, 1, 2}}, /*deps=*/{},
      /*preventing=*/{{0, 1}},  // forces at least two partitions
      /*bytes=*/{1000000, 8});
  const auto weighted = fusion::exact_enumeration_weighted(g);
  // The huge array's loops 0 and 2 share a partition.
  EXPECT_EQ(weighted.assignment[0], weighted.assignment[2]);
  EXPECT_NE(weighted.assignment[0], weighted.assignment[1]);
}

TEST(WeightedFusion, CoincidesWithUnitWhenSizesEqual) {
  Prng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::vector<int>> pins;
    for (int a = 0; a < 5; ++a) {
      std::vector<int> p;
      for (int l = 0; l < 5; ++l)
        if (rng.chance(0.5)) p.push_back(l);
      if (p.empty()) p.push_back(0);
      pins.push_back(p);
    }
    const auto g = fusion::graph_from_spec(5, pins, {}, {},
                                           {64, 64, 64, 64, 64});
    EXPECT_EQ(fusion::exact_enumeration(g).cost * 64,
              fusion::exact_enumeration_weighted(g).bytes_cost);
  }
}

}  // namespace
}  // namespace bwc
