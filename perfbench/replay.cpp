#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <set>
#include <utility>

#include "dtn/buffer.hpp"
#include "dtn/location_table.hpp"
#include "geometry/delaunay.hpp"
#include "geometry/spatial_grid.hpp"
#include "mobility/registry.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using glr::experiment::ScenarioConfig;

/// Views are cut for at most this many nodes, at this many 1 s snapshots:
/// ~2,000 views, enough for a stable per-call mean on every workload.
constexpr int kViewNodes = 100;
constexpr int kViewsTarget = 2000;
constexpr double kFirstSnapshot = 20.0;  // past the start-up transient
constexpr int kMinPasses = 3;
constexpr int kMaxPasses = 1000;

/// Keeps a replay's result observable so the timed calls are not elided.
void keep(std::size_t v) { asm volatile("" : : "r"(v) : "memory"); }

double nsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Repeats `pass` (which returns {timed ns, ops}) until the budget is spent,
/// at least kMinPasses times, and reports the median per-op cost.
template <class Pass>
ReplayCost timePasses(double budgetSeconds, Pass&& pass) {
  const auto start = Clock::now();
  std::vector<double> perOp;
  ReplayCost cost;
  while (static_cast<int>(perOp.size()) < kMinPasses ||
         (nsSince(start) < budgetSeconds * 1e9 &&
          static_cast<int>(perOp.size()) < kMaxPasses)) {
    const auto [ns, ops] = pass();
    perOp.push_back(ns / static_cast<double>(ops));
  }
  cost.nsPerOp = median(perOp);
  cost.passes = static_cast<int>(perOp.size());
  return cost;
}

}  // namespace

ViewSet buildViews(const ScenarioConfig& cfg) {
  const int n = cfg.numNodes;
  const glr::mobility::Area area{cfg.areaWidth, cfg.areaHeight};
  glr::mobility::ModelParams params = cfg.mobility.params;
  params.area = area;
  params.speedMin = cfg.speedMin;
  params.speedMax = cfg.speedMax;
  params.pause = cfg.pause;

  // A stream of its own, so the replay never shares draws with a run.
  glr::sim::Rng rng = glr::sim::Rng{cfg.seed}.fork(0x7065726662ULL);
  std::vector<std::unique_ptr<glr::mobility::MobilityModel>> models;
  models.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const glr::geom::Point2 start = glr::mobility::randomPosition(area, rng);
    models.push_back(glr::mobility::makeMobilityModel(
        cfg.mobility.model, params, start,
        rng.fork(static_cast<std::uint64_t>(i) + 1)));
  }

  std::vector<int> sampled(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) sampled[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {  // Fisher-Yates, then keep a prefix
    std::swap(sampled[static_cast<std::size_t>(i)],
              sampled[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  }
  sampled.resize(static_cast<std::size_t>(std::min(n, kViewNodes)));
  std::sort(sampled.begin(), sampled.end());
  const int snapshots =
      std::max(2, kViewsTarget / static_cast<int>(sampled.size()));

  // Location-table horizon in snapshots (1 s apart); 0 = never evicts.
  const int horizon =
      cfg.locationEvictAfter > 0.0
          ? std::max(1, static_cast<int>(cfg.locationEvictAfter))
          : 0;
  std::vector<std::deque<std::vector<int>>> heard(sampled.size());

  ViewSet out;
  out.radius = cfg.radius;
  double viewSum = 0.0;
  double tableSum = 0.0;
  int tableSamples = 0;
  std::vector<glr::geom::Point2> pos(static_cast<std::size_t>(n));
  std::vector<int> oneHop;
  std::vector<int> reach;
  for (int s = 0; s < snapshots; ++s) {
    const double t = kFirstSnapshot + s;
    for (int i = 0; i < n; ++i) {
      pos[static_cast<std::size_t>(i)] =
          models[static_cast<std::size_t>(i)]->positionAt(t);
    }
    const glr::geom::SpatialGrid grid{pos, cfg.radius};
    for (std::size_t k = 0; k < sampled.size(); ++k) {
      const int self = sampled[k];
      const glr::geom::Point2 p = pos[static_cast<std::size_t>(self)];
      oneHop.clear();
      grid.queryRadius(p, cfg.radius, oneHop);
      std::erase(oneHop, self);
      std::set<int> twoHop;
      for (const int v : oneHop) {
        reach.clear();
        grid.queryRadius(pos[static_cast<std::size_t>(v)], cfg.radius, reach);
        twoHop.insert(reach.begin(), reach.end());
      }
      twoHop.erase(self);
      for (const int v : oneHop) twoHop.erase(v);

      LocalView view{self, p, {}};
      for (const int v : oneHop) {
        view.known.push_back({v, pos[static_cast<std::size_t>(v)], true});
      }
      for (const int v : twoHop) {
        view.known.push_back({v, pos[static_cast<std::size_t>(v)], false});
      }
      std::sort(view.known.begin(), view.known.end(),
                [](const auto& a, const auto& b) { return a.id < b.id; });
      viewSum += static_cast<double>(view.known.size());

      if (horizon > 0) {
        std::vector<int> ids;
        for (const auto& kn : view.known) ids.push_back(kn.id);
        heard[k].push_back(std::move(ids));
        if (static_cast<int>(heard[k].size()) > horizon) heard[k].pop_front();
        if (static_cast<int>(heard[k].size()) == horizon) {
          std::set<int> distinct;
          for (const auto& ids : heard[k]) distinct.insert(ids.begin(), ids.end());
          tableSum += static_cast<double>(distinct.size());
          ++tableSamples;
        }
      }
      out.views.push_back(std::move(view));
    }
  }
  out.meanViewSize = viewSum / static_cast<double>(out.views.size());
  out.locationTableSize = tableSamples > 0
                              ? tableSum / static_cast<double>(tableSamples)
                              : static_cast<double>(n - 1);
  return out;
}

ReplayCost replaySpanner(const ViewSet& views, bool witnessRule,
                         double budgetSeconds) {
  glr::spanner::resetLocalSpannerCache();
  const ReplayCost cost = timePasses(budgetSeconds, [&] {
    const auto t0 = Clock::now();
    for (const LocalView& v : views.views) {
      keep(glr::spanner::localSpannerNeighbors(v.self, v.pos, v.known,
                                               views.radius, witnessRule)
               .size());
    }
    return std::pair{nsSince(t0), views.views.size()};
  });
  glr::spanner::resetLocalSpannerCache();
  return cost;
}

ReplayCost replayDelaunay(const ViewSet& views, double budgetSeconds) {
  glr::geom::Delaunay dt;
  std::vector<glr::geom::Point2> pts;
  return timePasses(budgetSeconds, [&] {
    const auto t0 = Clock::now();
    for (const LocalView& v : views.views) {
      pts.clear();
      pts.push_back(v.pos);
      for (const auto& kn : v.known) pts.push_back(kn.pos);
      glr::geom::Delaunay::buildInto(dt, pts);
      keep(dt.edges().size());
    }
    return std::pair{nsSince(t0), views.views.size()};
  });
}

namespace {

/// Hold-model state: every fired event schedules one successor at an
/// exponential increment, so the pending depth stays constant.
struct Hold {
  glr::sim::Simulator* sim = nullptr;
  glr::sim::Rng rng;
  std::uint64_t fired = 0;
  std::uint64_t limit = 0;

  void fire() {
    if (++fired >= limit) sim->stop();
    sim->schedule(rng.exponential(1.0), [this] { fire(); });
  }
};

}  // namespace

ReplayCost replayKernel(const ScenarioConfig& cfg, std::size_t depth,
                        double budgetSeconds) {
  const std::uint64_t events =
      std::max<std::uint64_t>(400000, 20 * static_cast<std::uint64_t>(depth));
  std::uint64_t pass = 0;
  return timePasses(budgetSeconds, [&] {
    glr::sim::Simulator sim;
    if (cfg.kernelQueue == glr::experiment::KernelQueue::kCalendar) {
      sim.setQueueMode(glr::sim::Simulator::QueueMode::kCalendar);
    }
    sim.reserve(depth);
    Hold hold{&sim, glr::sim::Rng{cfg.seed}.fork(0x686f6c64ULL + pass++), 0,
              events};
    for (std::size_t i = 0; i < depth; ++i) {
      sim.schedule(hold.rng.uniform(0.0, 1.0), [&hold] { hold.fire(); });
    }
    const auto t0 = Clock::now();
    const std::uint64_t ran = sim.run();
    return std::pair{nsSince(t0), ran};
  });
}

ReplayCost replayBuffer(const ScenarioConfig& cfg, std::size_t occupancy,
                        double budgetSeconds) {
  using glr::dtn::CopyKey;
  using glr::dtn::Message;
  constexpr int kCycles = 20000;
  const std::size_t cap = cfg.storageLimit;
  occupancy = std::clamp<std::size_t>(occupancy, 1, cap);
  const std::size_t cacheDepth = std::max<std::size_t>(1, occupancy / 2);
  const auto message = [](int seq) {
    Message m;
    m.id = {seq % 50, seq};
    m.srcNode = seq % 50;
    m.dstNode = (seq + 7) % 50;
    m.created = seq * 0.01;
    return m;
  };
  return timePasses(budgetSeconds, [&] {
    glr::dtn::MessageBuffer buf{cap, occupancy};
    std::deque<CopyKey> stored;
    std::deque<CopyKey> cached;
    int seq = 0;
    for (; seq < static_cast<int>(occupancy); ++seq) {
      buf.addToStore(message(seq));
      stored.push_back(message(seq).key());
    }
    std::uint64_t ops = 0;
    const auto t0 = Clock::now();
    for (int c = 0; c < kCycles; ++c, ++seq) {
      // A copy arrives (evicting Cache-first when full), the oldest stored
      // copy is sent, and the oldest cached copy is custody-acknowledged.
      const Message m = message(seq);
      buf.addToStore(m);
      stored.push_back(m.key());
      ++ops;
      while (!stored.empty()) {
        const CopyKey k = stored.front();
        stored.pop_front();
        ++ops;
        if (buf.moveToCache(k, 1, seq * 0.01)) {
          cached.push_back(k);
          break;
        }
      }
      if (cached.size() > cacheDepth) {
        static_cast<void>(buf.removeFromCache(cached.front()));
        cached.pop_front();
        ++ops;
      }
    }
    return std::pair{nsSince(t0), ops};
  });
}

ReplayCost replayLocation(const ScenarioConfig& cfg, std::size_t tableSize,
                          double budgetSeconds) {
  constexpr int kRounds = 200;  // 1 sim-s each
  const auto n = static_cast<std::uint64_t>(cfg.numNodes);
  tableSize = std::clamp<std::size_t>(tableSize, 1, n - 1);
  glr::sim::Rng rng = glr::sim::Rng{cfg.seed}.fork(0x6c6f63ULL);
  std::vector<int> pool;
  {
    std::set<int> ids;
    while (ids.size() < tableSize) ids.insert(static_cast<int>(rng.below(n)));
    pool.assign(ids.begin(), ids.end());
  }
  // Per round: half the pool re-heard, then as many lookups, a quarter of
  // them for ids the table may not hold; one prune per round when the
  // workload evicts (its periodic check runs about once a second).
  const std::size_t perRound = std::max<std::size_t>(1, tableSize / 2);
  std::vector<int> updates;
  std::vector<int> lookups;
  for (int r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < perRound; ++i) {
      updates.push_back(pool[rng.below(pool.size())]);
      lookups.push_back(rng.below(4) == 0 ? static_cast<int>(rng.below(n))
                                          : pool[rng.below(pool.size())]);
    }
  }
  const double horizon = cfg.locationEvictAfter;
  return timePasses(budgetSeconds, [&] {
    glr::dtn::LocationTable table;
    for (const int id : pool) table.update(id, {1.0, 1.0}, 0.0);
    std::uint64_t ops = 0;
    const auto t0 = Clock::now();
    std::size_t u = 0;
    for (int r = 1; r <= kRounds; ++r) {
      const double now = r;
      for (std::size_t i = 0; i < perRound; ++i, ++u) {
        table.update(updates[u], {now, now}, now);
        keep(table.lookup(lookups[u]).has_value() ? 1 : 0);
      }
      ops += 2 * perRound;
      if (horizon > 0.0) {
        table.prune(now - horizon);
        ++ops;
      }
    }
    return std::pair{nsSince(t0), ops};
  });
}

}  // namespace perfbench
