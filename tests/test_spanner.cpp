// Tests for UDG construction, k-hop neighborhoods, the LDTG planar spanner
// and the Georgiou connectivity threshold. The key property tests mirror the
// theory the paper leans on:
//   * LDTG is planar (paper's claim for the witness rule);
//   * LDTG preserves UDG connectivity (it contains all unit Gabriel edges);
//   * LDTG has bounded measured stretch vs the UDG.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <set>
#include <utility>
#include <vector>

#include "geometry/delaunay.hpp"
#include "geometry/point.hpp"
#include "graph/graph.hpp"
#include "sim/rng.hpp"
#include "spanner/connectivity.hpp"
#include "spanner/ldtg.hpp"
#include "spanner/udg.hpp"

namespace {

using glr::geom::dist;
using glr::geom::Point2;
using glr::graph::componentCount;
using glr::graph::connectedComponents;
using glr::graph::Graph;
using glr::graph::isPlanarEmbedding;
using glr::spanner::buildLdtg;
using glr::spanner::buildUnitDiskGraph;
using glr::spanner::connectivityThresholdRadius;
using glr::spanner::isLikelyConnected;
using glr::spanner::kHopNeighbors;
using glr::spanner::KnownNode;
using glr::spanner::LdtgRule;
using glr::spanner::localSpannerNeighbors;

std::vector<Point2> randomPoints(std::uint64_t seed, int n, double w,
                                 double h) {
  glr::sim::Rng rng{seed};
  std::vector<Point2> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, w), rng.uniform(0, h)});
  }
  return pts;
}

TEST(Udg, EdgesWithinRadiusOnly) {
  const std::vector<Point2> pts{{0, 0}, {5, 0}, {11, 0}};
  const Graph g = buildUnitDiskGraph(pts, 6.0);
  EXPECT_TRUE(g.hasEdge(0, 1));
  EXPECT_TRUE(g.hasEdge(1, 2));
  EXPECT_FALSE(g.hasEdge(0, 2));
}

TEST(Udg, RadiusIsInclusive) {
  const std::vector<Point2> pts{{0, 0}, {10, 0}};
  EXPECT_TRUE(buildUnitDiskGraph(pts, 10.0).hasEdge(0, 1));
  EXPECT_FALSE(buildUnitDiskGraph(pts, 9.999).hasEdge(0, 1));
}

TEST(Udg, NegativeRadiusThrows) {
  EXPECT_THROW(buildUnitDiskGraph({}, -1.0), std::invalid_argument);
}

TEST(KHop, PathNeighborhoods) {
  const std::vector<Point2> pts{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}};
  const Graph g = buildUnitDiskGraph(pts, 1.0);
  EXPECT_EQ(kHopNeighbors(g, 0, 1), (std::vector<int>{1}));
  EXPECT_EQ(kHopNeighbors(g, 0, 2), (std::vector<int>{1, 2}));
  EXPECT_EQ(kHopNeighbors(g, 2, 2), (std::vector<int>{0, 1, 3, 4}));
  EXPECT_EQ(kHopNeighbors(g, 0, 0), (std::vector<int>{}));
}

TEST(KHop, DepthOneOnPathGraphEqualsDirectNeighbors) {
  // Regression for the BFS over-enqueue: nodes at the depth-k frontier used
  // to be pushed into the queue and only discarded when popped, so k=1 on a
  // path parked the whole neighborhood there. The k=1 result must be exactly
  // the adjacency list, from every start node.
  const std::vector<Point2> pts{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0},
                                {5, 0}};
  const Graph g = buildUnitDiskGraph(pts, 1.0);
  for (int u = 0; u < 6; ++u) {
    std::vector<int> direct = g.neighbors(u);
    std::sort(direct.begin(), direct.end());
    EXPECT_EQ(kHopNeighbors(g, u, 1), direct) << "u=" << u;
  }
  // k beyond the diameter returns everyone else.
  EXPECT_EQ(kHopNeighbors(g, 0, 100), (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(KHop, NegativeKThrows) {
  const Graph g{3};
  EXPECT_THROW((void)kHopNeighbors(g, 0, -1), std::invalid_argument);
}

TEST(KHop, StartNodeOutOfRangeThrows) {
  const Graph g{3};
  EXPECT_THROW((void)kHopNeighbors(g, -1, 1), std::invalid_argument);
  EXPECT_THROW((void)kHopNeighbors(g, 3, 1), std::invalid_argument);
}

TEST(Connectivity, ThresholdMatchesPaperCalibration) {
  // n = 50, s = 10 in the paper's 1500x300 area: threshold ~ 133 m, which is
  // why the paper uses 3 copies at 50/100 m and 1 copy at 150/200/250 m.
  const double thr = connectivityThresholdRadius(50, 10.0, 1500.0, 300.0);
  EXPECT_GT(thr, 100.0);
  EXPECT_LT(thr, 150.0);
  EXPECT_FALSE(isLikelyConnected(50, 50.0, 1500.0, 300.0));
  EXPECT_FALSE(isLikelyConnected(50, 100.0, 1500.0, 300.0));
  EXPECT_TRUE(isLikelyConnected(50, 150.0, 1500.0, 300.0));
  EXPECT_TRUE(isLikelyConnected(50, 250.0, 1500.0, 300.0));
}

TEST(Connectivity, ThresholdShrinksWithDensity) {
  const double t50 = connectivityThresholdRadius(50, 10.0, 1000.0, 1000.0);
  const double t500 = connectivityThresholdRadius(500, 10.0, 1000.0, 1000.0);
  EXPECT_GT(t50, t500);
}

TEST(Connectivity, EmpiricalFigure1Observation) {
  // Paper, Figure 1: 50 nodes in 1000x1000. At r=250m the network is
  // "either connected or only a few nodes are disconnected"; at r=100m
  // connection is "almost impossible". Check both via the giant component.
  const int trials = 40;
  int nearlyConnectedAt250 = 0;
  int connectedAt100 = 0;
  for (int t = 0; t < trials; ++t) {
    const auto pts = randomPoints(1000 + t, 50, 1000.0, 1000.0);
    const auto labels250 =
        connectedComponents(buildUnitDiskGraph(pts, 250.0));
    std::vector<int> sizes(labels250.size(), 0);
    for (int l : labels250) ++sizes[l];
    if (*std::max_element(sizes.begin(), sizes.end()) >= 45) {
      ++nearlyConnectedAt250;
    }
    if (glr::graph::isConnected(buildUnitDiskGraph(pts, 100.0))) {
      ++connectedAt100;
    }
  }
  EXPECT_GE(nearlyConnectedAt250, trials * 8 / 10);
  EXPECT_LE(connectedAt100, trials / 10);
}

TEST(Connectivity, ProbabilityIncreasesWithRadius) {
  // The monotone trend underlying Algorithm 1's decision rule.
  const int trials = 40;
  int low = 0, high = 0;
  for (int t = 0; t < trials; ++t) {
    const auto pts = randomPoints(500 + t, 50, 1000.0, 1000.0);
    if (glr::graph::isConnected(buildUnitDiskGraph(pts, 150.0))) ++low;
    if (glr::graph::isConnected(buildUnitDiskGraph(pts, 350.0))) ++high;
  }
  EXPECT_GT(high, low);
  EXPECT_GE(high, trials * 8 / 10);
}

TEST(Connectivity, BadArgumentsThrow) {
  EXPECT_THROW((void)connectivityThresholdRadius(50, 1.0, 100, 100),
               std::invalid_argument);
  EXPECT_THROW((void)connectivityThresholdRadius(50, 10.0, 0, 100),
               std::invalid_argument);
}

TEST(Ldtg, SubgraphOfUdg) {
  const auto pts = randomPoints(3, 50, 1000, 1000);
  const double r = 250.0;
  const Graph udg = buildUnitDiskGraph(pts, r);
  const Graph ldtg = buildLdtg(pts, r, 2);
  EXPECT_LE(ldtg.numEdges(), udg.numEdges());
  for (const auto& [u, v] : ldtg.edges()) {
    EXPECT_TRUE(udg.hasEdge(u, v));
    EXPECT_LE(dist(pts[u], pts[v]), r);
  }
}

class LdtgProperty : public ::testing::TestWithParam<int> {};

TEST_P(LdtgProperty, PlanarAndConnectivityPreserving) {
  const int seed = GetParam();
  const auto pts = randomPoints(static_cast<std::uint64_t>(seed), 40,
                                1000, 1000);
  for (const double r : {150.0, 250.0, 400.0}) {
    const Graph udg = buildUnitDiskGraph(pts, r);
    const Graph ldtg = buildLdtg(pts, r, 2, LdtgRule::PaperWitness);

    // Planarity: the paper's main structural claim for the witness rule.
    EXPECT_TRUE(isPlanarEmbedding(ldtg, pts)) << "r=" << r;

    // Connectivity preservation: components must match the UDG exactly.
    const auto lu = connectedComponents(udg);
    const auto ll = connectedComponents(ldtg);
    for (std::size_t a = 0; a < pts.size(); ++a) {
      for (std::size_t b = a + 1; b < pts.size(); ++b) {
        EXPECT_EQ(lu[a] == lu[b], ll[a] == ll[b])
            << "pair (" << a << "," << b << ") r=" << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LdtgProperty, ::testing::Range(1, 13));

TEST(Ldtg, ContainsUnitGabrielEdges) {
  // Any UDG edge whose diameter disk is empty (Gabriel edge) is Delaunay in
  // every local neighborhood, so no witness can veto it.
  const auto pts = randomPoints(17, 45, 1000, 1000);
  const double r = 300.0;
  const Graph udg = buildUnitDiskGraph(pts, r);
  const Graph ldtg = buildLdtg(pts, r, 2, LdtgRule::PaperWitness);
  for (const auto& [u, v] : udg.edges()) {
    const Point2 mid = (pts[u] + pts[v]) / 2.0;
    const double rad2 = glr::geom::dist2(pts[u], pts[v]) / 4.0;
    bool gabriel = true;
    for (std::size_t w = 0; w < pts.size(); ++w) {
      if (static_cast<int>(w) == u || static_cast<int>(w) == v) continue;
      if (glr::geom::dist2(pts[w], mid) < rad2) {
        gabriel = false;
        break;
      }
    }
    if (gabriel) {
      EXPECT_TRUE(ldtg.hasEdge(u, v)) << u << "-" << v;
    }
  }
}

TEST(Ldtg, StretchIsBounded) {
  // Measured stretch of the LDTG vs the UDG shortest paths. Delaunay-based
  // spanners have constant stretch (~2.42 theoretical for full Delaunay);
  // allow generous slack for the localized variant on random instances.
  for (int seed = 1; seed <= 5; ++seed) {
    const auto pts = randomPoints(static_cast<std::uint64_t>(seed * 71), 40,
                                  1000, 1000);
    const double r = 350.0;
    const Graph udg = buildUnitDiskGraph(pts, r);
    if (componentCount(udg) != 1) continue;
    const Graph ldtg = buildLdtg(pts, r, 2);
    double worst = 1.0;
    for (std::size_t s = 0; s < pts.size(); ++s) {
      const auto du = glr::graph::dijkstra(udg, pts, static_cast<int>(s));
      const auto dl = glr::graph::dijkstra(ldtg, pts, static_cast<int>(s));
      for (std::size_t t = 0; t < pts.size(); ++t) {
        if (du[t] > 0.0 && du[t] < glr::graph::kInfDist) {
          worst = std::max(worst, dl[t] / du[t]);
        }
      }
    }
    EXPECT_LT(worst, 6.0) << "seed=" << seed;
  }
}

TEST(Ldtg, LDelRuleKeepsAtLeastWitnessEdges) {
  const auto pts = randomPoints(23, 40, 1000, 1000);
  const double r = 300.0;
  const Graph witness = buildLdtg(pts, r, 2, LdtgRule::PaperWitness);
  const Graph ldel = buildLdtg(pts, r, 2, LdtgRule::LDel);
  for (const auto& [u, v] : witness.edges()) {
    EXPECT_TRUE(ldel.hasEdge(u, v));
  }
  // The subset is strict on this seed: a witness whose true 2-hop set holds
  // a point neither endpoint sees vetoes one LDel edge. This is the global
  // oracle's only difference from the local star, so it must stay live.
  EXPECT_LT(witness.numEdges(), ldel.numEdges());
}

TEST(Ldtg, DenseNetworkEqualsDelaunayRestriction) {
  // When the radius covers the whole region, every node sees everything and
  // LDTG = Delaunay of the full point set (restricted to radius).
  const auto pts = randomPoints(29, 25, 100, 100);
  const Graph ldtg = buildLdtg(pts, 1000.0, 2);
  const auto dt = glr::geom::Delaunay::build(pts);
  const auto ldtgEdgeList = ldtg.edges();
  std::set<std::pair<int, int>> ldtgEdges(ldtgEdgeList.begin(),
                                          ldtgEdgeList.end());
  std::set<std::pair<int, int>> dtEdges(dt.edges().begin(), dt.edges().end());
  EXPECT_EQ(ldtgEdges, dtEdges);
}

TEST(LocalSpanner, MatchesGlobalViewWhenKnowledgeComplete) {
  // A node with complete 2-hop knowledge in a dense cluster should select
  // the same neighbors as the global LDel construction restricted to it.
  const auto pts = randomPoints(31, 20, 200, 200);
  const double r = 500.0;  // everyone sees everyone: knowledge is complete
  const Graph global = buildLdtg(pts, r, 2, LdtgRule::LDel);
  for (int u = 0; u < 20; ++u) {
    std::vector<KnownNode> known;
    for (int v = 0; v < 20; ++v) {
      if (v == u) continue;
      known.push_back({v, pts[v], dist(pts[u], pts[v]) <= r});
    }
    const auto nbrs = localSpannerNeighbors(u, pts[u], known, r);
    std::vector<int> want = global.neighbors(u);
    std::sort(want.begin(), want.end());
    EXPECT_EQ(nbrs, want) << "node " << u;
  }
}

TEST(LocalSpanner, EmptyKnowledgeGivesNoNeighbors) {
  EXPECT_TRUE(localSpannerNeighbors(0, {0, 0}, {}, 100.0).empty());
}

TEST(LocalSpanner, TwoNodesConnectIfInRange) {
  const std::vector<KnownNode> known{{1, {50, 0}, true}};
  EXPECT_EQ(localSpannerNeighbors(0, {0, 0}, known, 100.0),
            (std::vector<int>{1}));
  const std::vector<KnownNode> far{{1, {150, 0}, true}};
  EXPECT_TRUE(localSpannerNeighbors(0, {0, 0}, far, 100.0).empty());
}

TEST(LocalSpanner, LongDiagonalOutsideLocalDelaunayIsDropped) {
  // Four nodes in convex position, all in range of self: the circumcircle
  // of (self, 2, 3) excludes node 1, so DT(S) uses the short diagonal 2-3
  // and the long diagonal self-1 is not a candidate at all.
  const Point2 self{0, 0};
  const std::vector<KnownNode> known{
      {1, {100, 5}, true},   // across: the long diagonal
      {2, {50, 40}, true},   // above
      {3, {50, -40}, true},  // below
  };
  const auto dt = glr::geom::Delaunay::build(
      {self, known[0].pos, known[1].pos, known[2].pos});
  EXPECT_FALSE(dt.hasEdge(0, 1));
  EXPECT_TRUE(dt.hasEdge(2, 3));
  EXPECT_EQ(localSpannerNeighbors(0, self, known, 120.0),
            (std::vector<int>{2, 3}));
}

TEST(LocalSpanner, LocalViewIsPlanar) {
  // The self-incident edge star a node selects, combined over all nodes with
  // complete knowledge, must form a planar graph.
  const auto pts = randomPoints(37, 30, 500, 500);
  const double r = 200.0;
  const Graph udg = buildUnitDiskGraph(pts, r);
  Graph combined{pts.size()};
  for (int u = 0; u < 30; ++u) {
    std::vector<KnownNode> known;
    const auto twoHop = kHopNeighbors(udg, u, 2);
    for (int v : twoHop) {
      known.push_back({v, pts[v], udg.hasEdge(u, v)});
    }
    for (int v : localSpannerNeighbors(u, pts[u], known, r)) {
      combined.addEdge(u, v);
    }
  }
  EXPECT_TRUE(isPlanarEmbedding(combined, pts));
}

// Subset stability of the Delaunay builder, the fact the local star rests
// on: every witness view a node could triangulate is a subset of its own
// view S, so an edge it keeps from DT(S) must survive in DT(S ∩ disk(w, r))
// for every 1-hop witness w within r of both endpoints. Checked with the
// real builder, so a tie-rule change that breaks it (co-circular, collinear
// and duplicate inputs are where it could) fails here. Returns the number of
// (edge, witness) pairs checked.
int checkWitnessSubsetsKeepStar(const std::vector<Point2>& pts, double r) {
  const Graph udg = buildUnitDiskGraph(pts, r);
  const double r2 = r * r;
  int checked = 0;
  for (int u = 0; u < static_cast<int>(pts.size()); ++u) {
    // S in the order localSpannerNeighbors assembles it: self, then known.
    std::vector<KnownNode> known;
    std::vector<int> ids{u};
    for (int v : kHopNeighbors(udg, u, 2)) {
      known.push_back({v, pts[v], udg.hasEdge(u, v)});
      ids.push_back(v);
    }
    for (int v : localSpannerNeighbors(u, pts[u], known, r)) {
      for (std::size_t wi = 1; wi < ids.size(); ++wi) {
        const int w = ids[wi];
        if (w == v || !udg.hasEdge(u, w)) continue;
        if (glr::geom::dist2(pts[w], pts[u]) > r2 ||
            glr::geom::dist2(pts[w], pts[v]) > r2) {
          continue;
        }
        std::vector<Point2> sub;
        int uLocal = -1;
        int vLocal = -1;
        for (int x : ids) {
          if (glr::geom::dist2(pts[x], pts[w]) > r2) continue;
          if (x == u) uLocal = static_cast<int>(sub.size());
          if (x == v) vLocal = static_cast<int>(sub.size());
          sub.push_back(pts[x]);
        }
        const auto dt = glr::geom::Delaunay::build(sub);
        EXPECT_TRUE(dt.hasEdge(dt.canonicalIndex(uLocal),
                               dt.canonicalIndex(vLocal)))
            << "edge " << u << "-" << v << " lost in witness " << w
            << "'s view, r=" << r;
        ++checked;
      }
    }
  }
  return checked;
}

TEST(LocalSpannerSubsetStability, RandomPoints) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto pts = randomPoints(seed * 13, 40, 500, 500);
    for (const double r : {120.0, 200.0}) {
      checked += checkWitnessSubsetsKeepStar(pts, r);
    }
  }
  EXPECT_GT(checked, 1000);
}

TEST(LocalSpannerSubsetStability, SquareAndRectangularLattices) {
  // Every lattice cell is a co-circular quadruple.
  const auto lattice = [](int cols, int rows, double dx, double dy) {
    std::vector<Point2> pts;
    for (int i = 0; i < cols; ++i) {
      for (int j = 0; j < rows; ++j) pts.push_back({i * dx, j * dy});
    }
    return pts;
  };
  int checked = 0;
  for (const double r : {75.0, 110.0, 160.0}) {
    checked += checkWitnessSubsetsKeepStar(lattice(7, 7, 50, 50), r);
  }
  for (const double r : {55.0, 90.0}) {
    checked += checkWitnessSubsetsKeepStar(lattice(8, 6, 40, 30), r);
  }
  EXPECT_GT(checked, 1000);
}

TEST(LocalSpannerSubsetStability, ManhattanCollinearStreets) {
  // Nodes on a 4x4 street grid at integer offsets: long collinear runs
  // along each street, crossing at the intersections.
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    glr::sim::Rng rng{seed};
    std::vector<Point2> pts;
    for (int i = 0; i < 45; ++i) {
      const double street = 100.0 * std::floor(rng.uniform(0, 4));
      const double along = std::floor(rng.uniform(0, 301));
      if (rng.uniform(0, 1) < 0.5) {
        pts.push_back({street, along});
      } else {
        pts.push_back({along, street});
      }
    }
    for (const double r : {90.0, 150.0}) {
      checked += checkWitnessSubsetsKeepStar(pts, r);
    }
  }
  EXPECT_GT(checked, 1000);
}

TEST(LocalSpannerSubsetStability, CoCircularPolygonsAndRectangles) {
  int checked = 0;
  // Regular n-gons around a center node.
  for (const int n : {4, 6, 8, 12}) {
    std::vector<Point2> pts{{0, 0}};
    for (int i = 0; i < n; ++i) {
      const double a = 2.0 * std::numbers::pi * i / n;
      pts.push_back({100.0 * std::cos(a), 100.0 * std::sin(a)});
    }
    for (const double r : {80.0, 150.0, 210.0}) {
      checked += checkWitnessSubsetsKeepStar(pts, r);
    }
  }
  // Concentric axis-aligned rectangles: each corner quadruple is exactly
  // co-circular in floating point, and so is each rectangle's mirror pair.
  std::vector<Point2> rects;
  for (const auto& [a, b] : std::vector<std::pair<double, double>>{
           {40, 20}, {60, 45}, {90, 30}, {120, 80}}) {
    for (const double sx : {-1.0, 1.0}) {
      for (const double sy : {-1.0, 1.0}) rects.push_back({sx * a, sy * b});
    }
  }
  for (const double r : {70.0, 110.0, 170.0}) {
    checked += checkWitnessSubsetsKeepStar(rects, r);
  }
  EXPECT_GT(checked, 100);
}

TEST(LocalSpannerSubsetStability, DuplicatePositions) {
  // Distinct node ids sharing a position: the builder merges them onto the
  // first occurrence, in S and in every subset alike.
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto pts = randomPoints(seed * 29, 30, 400, 400);
    glr::sim::Rng rng{seed};
    for (int i = 0; i < 10; ++i) {
      const auto src = static_cast<std::size_t>(std::floor(rng.uniform(0, 30)));
      pts.push_back(pts[src]);
    }
    for (const double r : {120.0, 200.0}) {
      checked += checkWitnessSubsetsKeepStar(pts, r);
    }
  }
  EXPECT_GT(checked, 1000);
}

}  // namespace
