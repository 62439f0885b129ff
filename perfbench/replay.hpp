#pragma once
/// \file replay.hpp
/// Timed replays of single layers' public entry points on inputs generated
/// from a workload's own configuration (mobility model, density, radius,
/// queue mode, storage limit). They attribute host time to layers that a
/// real run does not expose, without changing any simulator code.

#include <cstdint>
#include <vector>

#include "experiment/scenario.hpp"
#include "spanner/ldtg.hpp"

namespace perfbench {

/// One node's local view at one instant: its true 1-hop neighbors and
/// their 1-hop neighbors (the 2-hop knowledge hello beacons deliver).
struct LocalView {
  int self = -1;
  glr::geom::Point2 pos;
  std::vector<glr::spanner::KnownNode> known;
};

struct ViewSet {
  std::vector<LocalView> views;
  double radius = 0.0;
  double meanViewSize = 0.0;
  /// Estimated location-table entries per node: distinct ids seen in a
  /// node's 2-hop views over the eviction horizon (every other node when
  /// the workload never evicts).
  double locationTableSize = 0.0;
};

/// Samples the workload's mobility model at 1 s steps and cuts local views
/// for a fixed subset of nodes. Deterministic in cfg.seed.
[[nodiscard]] ViewSet buildViews(const glr::experiment::ScenarioConfig& cfg);

/// Per-operation cost of one replay: the median over equal passes.
struct ReplayCost {
  double nsPerOp = 0.0;
  int passes = 0;
};

/// localSpannerNeighbors over every view (memo cache cleared first; each
/// call misses because consecutive views of a node differ in time).
[[nodiscard]] ReplayCost replaySpanner(const ViewSet& views, bool witnessRule,
                                       double budgetSeconds);

/// Delaunay::buildInto over each view's point set (self + known).
[[nodiscard]] ReplayCost replayDelaunay(const ViewSet& views,
                                        double budgetSeconds);

/// Hold model through Simulator::schedule/run at `depth` pending events in
/// the workload's queue mode.
[[nodiscard]] ReplayCost replayKernel(const glr::experiment::ScenarioConfig& cfg,
                                      std::size_t depth, double budgetSeconds);

/// MessageBuffer add / move-to-cache / custody-ack cycle at `occupancy`
/// copies under the workload's storage limit (evicting when full).
[[nodiscard]] ReplayCost replayBuffer(const glr::experiment::ScenarioConfig& cfg,
                                      std::size_t occupancy,
                                      double budgetSeconds);

/// LocationTable update/lookup (and prune, when the workload evicts) over
/// `tableSize` ids drawn from the workload's population.
[[nodiscard]] ReplayCost replayLocation(
    const glr::experiment::ScenarioConfig& cfg, std::size_t tableSize,
    double budgetSeconds);

}  // namespace perfbench
