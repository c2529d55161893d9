#include "core/stroll_dp.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "topology/fat_tree.hpp"
#include "topology/linear.hpp"
#include "topology/misc.hpp"

namespace ppdc {
namespace {

/// The Fig. 4 instance of the paper. Raw-graph DP would find the 3-edge
/// path s,A,B,t of cost 7; the metric-closure DP must find the cheaper
/// walk-equivalent s,D,C,t of cost 6 (Example 2).
struct Fig4 {
  Graph g;
  NodeId s, t, a, b, c, d;
  Fig4() {
    s = g.add_node(NodeKind::kHost, "s");
    t = g.add_node(NodeKind::kHost, "t");
    a = g.add_node(NodeKind::kSwitch, "A");
    b = g.add_node(NodeKind::kSwitch, "B");
    c = g.add_node(NodeKind::kSwitch, "C");
    d = g.add_node(NodeKind::kSwitch, "D");
    g.add_edge(s, a, 3.0);
    g.add_edge(a, b, 2.0);
    g.add_edge(b, t, 2.0);
    g.add_edge(s, d, 2.0);
    g.add_edge(d, t, 2.0);
    g.add_edge(t, c, 1.0);
  }
};

TEST(StrollDp, Fig4Example2FindsCost6ViaClosure) {
  Fig4 f;
  const AllPairs apsp(f.g);
  const StrollResult r = solve_top1_dp(apsp, f.s, f.t, 2);
  EXPECT_DOUBLE_EQ(r.cost, 6.0);
  ASSERT_EQ(r.placement.size(), 2u);
  EXPECT_EQ(r.placement[0], f.d);
  EXPECT_EQ(r.placement[1], f.c);
  EXPECT_FALSE(r.used_fallback);
}

TEST(StrollDp, Fig4MatchesBruteForce) {
  Fig4 f;
  const AllPairs apsp(f.g);
  for (int n = 1; n <= 4; ++n) {
    const StrollResult r = solve_top1_dp(apsp, f.s, f.t, n);
    const double opt = testing::brute_force_stroll_cost(apsp, f.s, f.t, n);
    EXPECT_GE(r.cost + 1e-9, opt) << "n=" << n;
    EXPECT_LE(r.cost, 2.0 * opt + 1e-9) << "n=" << n;
  }
}

TEST(StrollDp, ZeroQuotaIsDirectEdge) {
  Fig4 f;
  const AllPairs apsp(f.g);
  const StrollResult r = solve_top1_dp(apsp, f.s, f.t, 0);
  EXPECT_DOUBLE_EQ(r.cost, 4.0);  // s-D-t shortest path
  EXPECT_TRUE(r.placement.empty());
  EXPECT_EQ(r.edges_used, 1);
}

TEST(StrollDp, RateScalesCostLinearly) {
  Fig4 f;
  const AllPairs apsp(f.g);
  const StrollResult r1 = solve_top1_dp(apsp, f.s, f.t, 2, 1.0);
  const StrollResult r5 = solve_top1_dp(apsp, f.s, f.t, 2, 5.0);
  EXPECT_DOUBLE_EQ(r5.cost, 5.0 * r1.cost);
  EXPECT_EQ(r1.placement, r5.placement);
}

TEST(StrollDp, PlacementIsDistinctSwitchesExcludingEndpoints) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const NodeId s = topo.racks[RackIdx{0}][0];
  const NodeId t = topo.racks[RackIdx{5}][1];
  for (int n = 1; n <= 10; ++n) {
    const StrollResult r = solve_top1_dp(apsp, s, t, n);
    ASSERT_EQ(r.placement.size(), static_cast<std::size_t>(n));
    std::vector<NodeId> sorted = r.placement;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    for (const NodeId w : r.placement) {
      EXPECT_TRUE(topo.graph.is_switch(w));
      EXPECT_NE(w, s);
      EXPECT_NE(w, t);
    }
  }
}

TEST(StrollDp, WalkConnectsSourceToDestination) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const NodeId s = topo.racks[RackIdx{0}][0];
  const NodeId t = topo.racks[RackIdx{7}][0];
  const StrollResult r = solve_top1_dp(apsp, s, t, 5);
  ASSERT_GE(r.walk.size(), 2u);
  EXPECT_EQ(r.walk.front(), s);
  EXPECT_EQ(r.walk.back(), t);
  // The reported cost equals the metric length of the walk.
  double len = 0.0;
  for (std::size_t i = 0; i + 1 < r.walk.size(); ++i) {
    len += apsp.cost(r.walk[i], r.walk[i + 1]);
  }
  EXPECT_NEAR(r.cost, len, 1e-9);
}

TEST(StrollDp, Example3SevenStrollAcrossPods) {
  // §IV Example 3 shape: a 7-stroll between hosts of different pods in a
  // k=4 fat-tree admits an 8-edge all-unit-hop path, so the optimum is 8.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const NodeId h4 = topo.racks[RackIdx{1}][1];  // pod 0
  const NodeId h5 = topo.racks[RackIdx{2}][0];  // pod 1
  const StrollResult r = solve_top1_dp(apsp, h4, h5, 7);
  EXPECT_GE(r.cost, 8.0);   // 8 legs, each at least one hop
  EXPECT_LE(r.cost, 12.0);  // DP stays near the optimum
  EXPECT_EQ(r.placement.size(), 7u);
}

TEST(StrollDp, NTourSameEndpointHost) {
  // s == t (Fig. 5: both VMs on h1) — the n-tour case Algorithm 2 covers.
  const Topology topo = build_linear(5);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  const StrollResult r = solve_top1_dp(apsp, h1, h1, 2);
  // Optimal 2-tour: h1, s1, s2, s1, h1 -> shortcut h1,s1,s2 + s2->h1 = 1+1+2.
  EXPECT_DOUBLE_EQ(r.cost, 4.0);
  EXPECT_EQ(r.placement.size(), 2u);
}

TEST(StrollDp, ZeroQuotaSameEndpointIsSingleNodeWalk) {
  // Degenerate n-tour base: s == t with nothing to place needs no edge at
  // all. The walk must be the single node {s} — the old {s, s} answer
  // broke the "consecutive walk nodes are distinct" invariant downstream
  // consumers rely on.
  const Topology topo = build_linear(5);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  const StrollResult r = solve_top1_dp(apsp, h1, h1, 0);
  EXPECT_EQ(r.cost, 0.0);
  EXPECT_EQ(r.walk, std::vector<NodeId>{h1});
  EXPECT_TRUE(r.placement.empty());
  EXPECT_EQ(r.edges_used, 0);
  EXPECT_FALSE(r.used_fallback);
  for (std::size_t i = 0; i + 1 < r.walk.size(); ++i) {
    EXPECT_NE(r.walk[i], r.walk[i + 1]);
  }
}

TEST(StrollDp, MatchesBruteForceOnRandomWeightedGraphs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Topology topo = build_random_connected(7, 2, 6, 0.5, 3.0, seed);
    const AllPairs apsp(topo.graph);
    const NodeId s = topo.graph.hosts()[0];
    const NodeId t = topo.graph.hosts()[1];
    for (int n = 1; n <= 4; ++n) {
      const StrollResult r = solve_top1_dp(apsp, s, t, n);
      const double opt = testing::brute_force_stroll_cost(apsp, s, t, n);
      EXPECT_GE(r.cost + 1e-9, opt) << "seed=" << seed << " n=" << n;
      EXPECT_LE(r.cost, 2.0 * opt + 1e-9) << "seed=" << seed << " n=" << n;
    }
  }
}

TEST(StrollDp, Theorem3CertifiesOptimality) {
  // Whenever the sufficient condition of Theorem 3 holds, the DP result
  // must equal the brute-force optimum.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Topology topo = build_random_connected(6, 2, 5, 0.5, 2.0, seed);
    const AllPairs apsp(topo.graph);
    const NodeId s = topo.graph.hosts()[0];
    const NodeId t = topo.graph.hosts()[1];
    for (int n = 1; n <= 3; ++n) {
      StrollTable table(apsp, t, 1.0);
      const StrollResult r = table.find(s, n);
      if (table.satisfies_theorem3(r)) {
        const double opt = testing::brute_force_stroll_cost(apsp, s, t, n);
        EXPECT_NEAR(r.cost, opt, 1e-9) << "seed=" << seed << " n=" << n;
      }
    }
  }
}

TEST(StrollDp, TableIsReusableAcrossSources) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto& sw = topo.graph.switches();
  StrollTable table(apsp, sw[10], 2.0);
  for (const NodeId s : {sw[0], sw[3], sw[7]}) {
    const StrollResult shared = table.find(s, 3);
    const StrollResult fresh = solve_top1_dp(apsp, s, sw[10], 3, 2.0);
    EXPECT_DOUBLE_EQ(shared.cost, fresh.cost);
  }
}

TEST(StrollDp, RejectsImpossibleQuota) {
  const Topology topo = build_linear(3);
  const AllPairs apsp(topo.graph);
  const NodeId h1 = topo.graph.hosts()[0];
  const NodeId h2 = topo.graph.hosts()[1];
  EXPECT_THROW(solve_top1_dp(apsp, h1, h2, 4), PpdcError);  // only 3 switches
  EXPECT_THROW(solve_top1_dp(apsp, h1, h2, -1), PpdcError);
  EXPECT_THROW(solve_top1_dp(apsp, h1, h2, 2, 0.0), PpdcError);
}

TEST(StrollDp, RejectsMalformedUniverse) {
  // The level scan masks a candidate by its row, so a switch listed twice
  // would escape the "w != u" exclusion through its second row.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const auto& sw = topo.graph.switches();
  const NodeId host = topo.graph.hosts()[0];
  EXPECT_THROW(StrollMetric(apsp, 1.0, {sw[0], sw[1], sw[0]}), PpdcError);
  EXPECT_THROW(StrollMetric(apsp, 1.0, {sw[0], host}), PpdcError);
  EXPECT_THROW(StrollTable(apsp, sw[2], 1.0, {sw[1], sw[1]}), PpdcError);
  EXPECT_NO_THROW(StrollTable(apsp, sw[2], 1.0, {sw[1], sw[0]}));
}

TEST(StrollDp, CostNondecreasingInQuota) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const NodeId s = topo.racks[RackIdx{0}][0];
  const NodeId t = topo.racks[RackIdx{6}][1];
  double prev = 0.0;
  for (int n = 1; n <= 12; ++n) {
    const StrollResult r = solve_top1_dp(apsp, s, t, n);
    EXPECT_GE(r.cost + 1e-9, prev) << "n=" << n;
    prev = r.cost;
  }
}

}  // namespace
}  // namespace ppdc
