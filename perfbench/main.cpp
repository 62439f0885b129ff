/// \file main.cpp
/// The repo benchmark: runs one named GLR workload through the public
/// experiment::runScenario API, checks its outputs, and prints every metric
/// by name with its unit. The last stdout line is one JSON object
/// {"correct", "attempted", "failed", "metrics"}.
///
/// Usage:
///   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///             [--commit SHA]
///   perfbench --list   workloads ("w NAME") and metrics ("0|1 NAME UNIT",
///                      by the --trace mode that prints them), one a line
///   perfbench --selftest
///
/// --trace 0 reports the end-to-end metrics of untraced runs over a panel of
/// scenario seeds drawn from --seed; --trace 1 the per-layer metrics of the
/// scenario at --seed itself, from runs instrumented from outside (mobility
/// timing wrapper, allocation counter, spanner memo counters) and from
/// timed replays of single layers. Workload choice, the layer -> end-to-end map
/// and how to run this are in README.md next to this file.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "probes.hpp"
#include "replay.hpp"
#include "sim/rng.hpp"
#include "spanner/ldtg.hpp"
#include "stats.hpp"

namespace {

using glr::experiment::KernelQueue;
using glr::experiment::Protocol;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;
using glr::experiment::SpatialIndexMode;
using Clock = std::chrono::steady_clock;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"wall_s", "s"},
    {"events_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"spanner.calls", "count"},
    {"spanner.memo_hit_ratio", "ratio"},
    {"spanner.us_per_call", "us"},
    {"spanner.mean_view_size", "count"},
    {"spanner.est_share", "ratio"},
    {"geometry.delaunay_us_per_build", "us"},
    {"mobility.calls", "count"},
    {"mobility.ns_per_call", "ns"},
    {"mobility.share", "ratio"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"dtn.buffer_ns_per_op", "ns"},
    {"dtn.location_ns_per_op", "ns"},
    {"dtn.evictions", "count"},
    {"dtn.custody_refusals", "count"},
    {"dtn.send_rejects", "count"},
    {"mac.data_tx", "count"},
    {"mac.busy_deferrals", "count"},
    {"mac.ack_timeouts", "count"},
    {"mac.queue_drops", "count"},
    {"mac.retry_drops", "count"},
    {"channel.collisions", "count"},
    {"channel.air_time_s", "s"},
    {"core.data_sent", "count"},
    {"core.custody_acks", "count"},
    {"core.face_transitions", "count"},
    {"core.tx_failures", "count"},
    {"core.useful_tx_ratio", "ratio"},
    {"alloc.per_event", "allocs/event"},
    {"bench.trace_overhead_pct", "%"},
};

// ------------------------------------------------------------- workloads ---

/// The pinned golden glr-50n-400s-200msg-seed7: paper Table 1, random
/// waypoint. Spanner/geometry dominate; the working set fits in L2.
ScenarioConfig paperGlr(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.radius = 100.0;
  cfg.simTime = 400.0;
  cfg.numMessages = 200;
  cfg.seed = seed;
  return cfg;
}

/// GLR past its saturation knee with every overload control engaged:
/// buffer writes, evictions, custody refusals and MAC queue pressure.
ScenarioConfig overloadGlr(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.traffic.model = "poisson";
  cfg.traffic.rate = 50.0;
  cfg.congestionControl = true;
  cfg.radius = 100.0;
  cfg.simTime = 300.0;
  cfg.storageLimit = 40;
  cfg.custodyWatermark = 20;
  cfg.seed = seed;
  return cfg;
}

/// 10,000 nodes at the paper's density (area scaled by sqrt(200)) on the
/// city-scale path: calendar queue, tiled receiver index, table eviction.
/// Tables, position cache, receiver index and a deep kernel queue work;
/// the spanner is nearly idle.
ScenarioConfig city10k(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.radius = 100.0;
  const double lin = std::sqrt(10000.0 / cfg.numNodes);
  cfg.areaWidth *= lin;
  cfg.areaHeight *= lin;
  cfg.numNodes = 10000;
  cfg.trafficNodes = 45;
  cfg.simTime = 30.0;
  cfg.numMessages = 60;
  cfg.kernelQueue = KernelQueue::kCalendar;
  cfg.spatialIndex = SpatialIndexMode::kTiled;
  cfg.neighborEvictAfterFactor = 2.0;
  cfg.locationEvictAfter = 15.0;
  cfg.seed = seed;
  return cfg;
}

struct Workload {
  const char* name;
  ScenarioConfig (*config)(std::uint64_t seed);
  /// Scenarios per end-to-end run (see panelSeeds), sized so one pass takes
  /// ~16-18 s on a 4-core Xeon and the panel mean's seed-to-seed spread
  /// stays under ~5%. City runs vary little by seed but more by host noise.
  int panel;
};

constexpr Workload kWorkloads[] = {
    {"paper-glr", paperGlr, 16},
    {"overload-glr", overloadGlr, 8},
    {"city-10k", city10k, 3},
};

/// The KernelRegression golden: paper-glr at seed 7 executes exactly this
/// many events, so a timing can never come from simulating something else.
constexpr std::uint64_t kGoldenEvents = 2385279;
constexpr std::uint64_t kGoldenSeed = 7;

/// Set-up is timed as the full config run to this horizon, with traffic
/// starting at 0 so every traffic model has a non-empty window: world,
/// agents, tables and reservations are built, almost no event fires.
/// Set-up runs happen in slices before every timed run, not in one burst,
/// and setup_s is the mean of the slice medians. The host alternates
/// between a fast and a ~1.5x slower state for milliseconds to minutes at a
/// time: slices spread over the whole run see the same mix of both states
/// as the timed runs, each slice's median drops outliers, and the mean
/// moves smoothly with the mix where one median over all samples would
/// jump between the two states.
constexpr double kSetupHorizon = 1e-3;
constexpr double kSetupSliceSeconds = 0.05;
constexpr double kWarmupSeconds = 0.5;

/// HostGauge pass time on a 4-core Xeon in its fast state. The end-to-end
/// times are scaled by kGaugeNominalSeconds / (mean gauge pass of the run).
/// After every timed run the gauge runs for kGaugeShare of that run's wall
/// (at least one pass), so its passes sample the host over time the way the
/// timed runs do. Over a slow host spell the quartile spread of 30 s
/// windows of city-10k wall time was 0.35 raw and 0.13 scaled.
constexpr double kGaugeNominalSeconds = 0.04;
constexpr double kGaugeShare = 0.05;

// ------------------------------------------------------------ gate ledger ---

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Gate {
  int attempted = 0;
  int failed = 0;

  void record(const char* what, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    std::fprintf(stderr, "perfbench: %s run FAILED: %s\n", what,
                 error.c_str());
  }
};

/// Every per-run correctness law; "" when the run passes.
std::string audit(const char* workload, const ScenarioConfig& cfg,
                  const ScenarioResult& r, const ScenarioResult* reference) {
  const std::uint64_t countedDrops =
      r.advBlackholeDrops + r.advGreyholeDrops + r.advSelfishRefusals +
      r.bufferEvictions + r.expiredDrops + r.macQueueDrops + r.macRetryDrops +
      r.macRadioDownDrops;
  if (r.created > r.delivered + r.bufferedAtEnd + r.macQueueAtEnd +
                      countedDrops) {
    return "conservation violated: created > delivered + buffered + "
           "queued + counted drops";
  }
  if (r.eventsExecuted == 0) return "no events executed";
  if (std::strcmp(workload, "paper-glr") == 0 && cfg.seed == kGoldenSeed &&
      r.eventsExecuted != kGoldenEvents) {
    return "golden event count " + std::to_string(r.eventsExecuted) +
           " != " + std::to_string(kGoldenEvents);
  }
  if (reference != nullptr &&
      !glr::experiment::bitIdenticalIgnoringWall(*reference, r)) {
    return "result differs from the reference run (not bit-identical)";
  }
  return "";
}

struct Timed {
  ScenarioResult result;
  double wall = 0.0;
  bool ok = false;
};

/// One closed-loop run: the scenario to completion, timed from outside.
Timed runOnce(const ScenarioConfig& cfg) {
  Timed t;
  const auto t0 = Clock::now();
  try {
    t.result = glr::experiment::runScenario(cfg);
    t.ok = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: runScenario threw: %s\n", e.what());
  }
  t.wall = secondsSince(t0);
  return t;
}

/// Runs, audits and records one scenario run.
Timed runAudited(Gate& gate, const char* what, const char* workload,
                 const ScenarioConfig& cfg, const ScenarioResult* reference) {
  Timed t = runOnce(cfg);
  gate.record(what, t.ok ? audit(workload, cfg, t.result, reference)
                         : std::string{"scenario threw"});
  return t;
}

/// Peak RSS of one run in a forked child (ru_maxrss), for kernels that
/// refuse the clear_refs reset. 0 if the child fails.
std::uint64_t forkedPeakRss(const ScenarioConfig& cfg) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return 0;
  if (pid == 0) {
    const Timed t = runOnce(cfg);
    _exit(t.ok ? 0 : 1);
  }
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return 0;
  }
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

// ---------------------------------------------------------------- output ---

struct Value {
  std::string name;
  std::string unit;
  double value = 0.0;
  bool integer = false;
};

std::string formatNumber(const Value& v) {
  char buf[64];
  if (v.integer) {
    std::snprintf(buf, sizeof buf, "%.0f", v.value);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v.value);
  }
  return buf;
}

void printMetric(const Value& v, const std::vector<double>* samples) {
  std::printf("  %-32s %18s %-12s", v.name.c_str(), formatNumber(v).c_str(),
              v.unit.c_str());
  if (samples != nullptr) {
    const perfbench::Quartiles q = perfbench::quartiles(*samples);
    std::printf(" q1 %.6g  q3 %.6g  n %zu", q.q1, q.q3, samples->size());
  }
  std::printf("\n");
}

void printResultLine(const Gate& gate, const std::vector<Value>& values) {
  std::string line = "{\"correct\": ";
  line += gate.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(gate.attempted);
  line += ", \"failed\": " + std::to_string(gate.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < values.size(); ++i) {
    const Value& v = values[i];
    const bool finite = std::isfinite(v.value);
    line += (i ? ", \"" : "\"") + v.name + "\": {\"value\": " +
            (finite ? formatNumber(v) : std::string{"null"}) +
            ", \"unit\": \"" + v.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

std::string cpuModel() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string compilerId() {
#if defined(__clang__)
  return std::string{"clang "} + __clang_version__;
#elif defined(__GNUC__)
  return std::string{"gcc "} + __VERSION__;
#else
  return "unknown";
#endif
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

// --------------------------------------------------------------- modes ---

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = kGoldenSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
};

Value metric(const char* name, double value, bool integer = false) {
  for (const Metric& m : kEndToEnd) {
    if (std::strcmp(m.name, name) == 0) return {name, m.unit, value, integer};
  }
  for (const Metric& m : kPerLayer) {
    if (std::strcmp(m.name, name) == 0) return {name, m.unit, value, integer};
  }
  std::fprintf(stderr, "perfbench: unknown metric %s\n", name);
  std::abort();
}

/// Runs the config to kSetupHorizon for up to `sliceSeconds` (at least
/// once) and appends the slice's median wall to `sliceMedians`. False if a
/// run threw.
bool sampleSetup(Gate& gate, const ScenarioConfig& cfg, double sliceSeconds,
                 std::vector<double>& sliceMedians) {
  ScenarioConfig setup = cfg;
  setup.simTime = kSetupHorizon;
  setup.trafficStart = 0.0;  // stochastic traffic refuses an empty window
  std::vector<double> walls;
  const auto start = Clock::now();
  do {
    const Timed t = runOnce(setup);
    if (!t.ok) {
      gate.record("setup", "scenario threw");
      return false;
    }
    walls.push_back(t.wall);
  } while (secondsSince(start) < sliceSeconds);
  sliceMedians.push_back(perfbench::median(walls));
  return true;
}

/// Scenario seeds of one end-to-end run: the workload seed first, then
/// panel-1 more drawn from it. Averaging over a panel keeps the figures of
/// two workload seeds comparable: single 50-node scenarios differ by ~16%
/// in wall time and ~26% in event count from seed to seed.
std::vector<std::uint64_t> panelSeeds(std::uint64_t seed, int panel) {
  std::vector<std::uint64_t> seeds{seed};
  std::uint64_t state = seed;
  while (static_cast<int>(seeds.size()) < panel) {
    seeds.push_back(glr::sim::splitmix64(state));
  }
  return seeds;
}

std::vector<Value> runEndToEnd(const Options& opt, Gate& gate) {
  const Workload& wl = *opt.workload;
  const std::vector<std::uint64_t> seeds = panelSeeds(opt.seed, wl.panel);
  const std::size_t k = seeds.size();
  std::vector<ScenarioConfig> cfgs;
  for (const std::uint64_t s : seeds) cfgs.push_back(wl.config(s));

  perfbench::HostGauge gauge;
  std::vector<double> gaugeTimes;
  // Warm-up (allocator, code, scratch): set-up runs whose times are dropped.
  std::vector<double> setupSlices;
  if (!sampleSetup(gate, cfgs[0], kWarmupSeconds, setupSlices)) return {};
  setupSlices.clear();

  // Closed loop over the panel, round-robin, until the budget is spent and
  // at least one scenario has repeated. A scenario's first run is its
  // reference; every repeat must reproduce it bit for bit.
  const bool rssReset = perfbench::resetPeakRss();
  std::vector<std::vector<double>> walls(k);
  std::vector<ScenarioResult> refs(k);
  std::vector<double> rssMb;
  std::size_t runs = 0;
  const auto start = Clock::now();
  while (runs < k + 1 || secondsSince(start) < opt.seconds) {
    const std::size_t i = runs % k;
    if (!sampleSetup(gate, cfgs[0], kSetupSliceSeconds, setupSlices)) {
      return {};
    }
    if (rssReset && !perfbench::resetPeakRss()) {
      gate.record("rss", "clear_refs reset stopped working");
    }
    const Timed t = runAudited(gate, "timed", wl.name, cfgs[i],
                               runs < k ? nullptr : &refs[i]);
    if (!t.ok) return {};
    if (runs < k) refs[i] = t.result;
    walls[i].push_back(t.wall);
    if (rssReset) {
      rssMb.push_back(static_cast<double>(perfbench::peakRssBytes()) / 1e6);
    }
    const auto gaugeStart = Clock::now();
    do {
      gaugeTimes.push_back(gauge.run());
    } while (secondsSince(gaugeStart) < kGaugeShare * t.wall);
    ++runs;
  }
  if (!rssReset) {
    rssMb.push_back(static_cast<double>(forkedPeakRss(cfgs[0])) / 1e6);
    if (rssMb.back() <= 0.0) gate.record("rss", "forked RSS probe failed");
  }

  std::vector<double> seedWalls;
  std::vector<double> seedRates;
  double events = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    seedWalls.push_back(perfbench::median(walls[i]));
    seedRates.push_back(static_cast<double>(refs[i].eventsExecuted) /
                        seedWalls.back());
    events += static_cast<double>(refs[i].eventsExecuted);
  }
  const double meanWall = mean(seedWalls);
  const double hostScale = kGaugeNominalSeconds / mean(gaugeTimes);

  std::printf("panel: %zu scenarios, %zu timed runs, %.0f events per panel "
              "pass\n",
              k, runs, events);
  std::printf("host scale: %.6f (gauge %.6f s nominal / %.6f s measured, "
              "%zu passes); unscaled: wall_s %.6f s, events_per_s %.1f, "
              "setup_s %.9f s\n",
              hostScale, kGaugeNominalSeconds, mean(gaugeTimes),
              gaugeTimes.size(), meanWall,
              events / static_cast<double>(k) / meanWall, mean(setupSlices));
  std::printf("peak RSS method: %s\n",
              rssReset ? "VmHWM reset before each run via /proc/self/"
                         "clear_refs 5 (after malloc_trim), median over runs"
                       : "ru_maxrss of one forked child run (clear_refs "
                         "refused)");
  std::printf("science at seed %llu (checked for determinism, not a metric): "
              "delivery %.6f  latency p50 %.6f s  p99 %.6f s\n",
              static_cast<unsigned long long>(seeds[0]),
              refs[0].deliveryRatio, refs[0].latencyP50, refs[0].latencyP99);

  const std::vector<Value> values = {
      metric("wall_s", meanWall * hostScale),
      metric("events_per_s",
             events / static_cast<double>(k) / (meanWall * hostScale)),
      metric("setup_s", mean(setupSlices) * hostScale),
      metric("peak_rss_mb", perfbench::median(rssMb)),
  };
  const std::vector<double>* samples[] = {&seedWalls, &seedRates,
                                          &setupSlices, &rssMb};
  std::printf("end-to-end metrics (value, host-scaled; unscaled quartiles "
              "over per-scenario medians, set-up slice medians, or runs):\n");
  for (std::size_t i = 0; i < values.size(); ++i) {
    printMetric(values[i], samples[i]);
  }
  return values;
}

std::vector<Value> runPerLayer(const Options& opt, const ScenarioConfig& cfg,
                               Gate& gate) {
  const char* wl = opt.workload->name;
  const double clockNs = perfbench::clockPairOverheadNs();
  ScenarioConfig traced = cfg;
  traced.mobility.model = perfbench::registerTimedMobility(cfg.mobility.model);

  const Timed ref = runAudited(gate, "reference", wl, cfg, nullptr);
  if (!ref.ok) return {};
  const ScenarioResult& r = ref.result;

  // Untraced/traced pairs take half the budget, the replays the rest.
  std::vector<double> untracedWalls;
  std::vector<double> tracedWalls;
  std::vector<double> allocsPerEvent;
  std::vector<double> mobilityNs;
  std::set<std::uint64_t> mobilityCalls;
  std::set<std::uint64_t> spannerCalls;
  std::set<std::uint64_t> spannerHits;
  const auto start = Clock::now();
  while (untracedWalls.size() < 2 || secondsSince(start) < opt.seconds / 2) {
    const std::uint64_t a0 = perfbench::allocCount();
    const Timed u = runAudited(gate, "untraced", wl, cfg, &r);
    allocsPerEvent.push_back(
        static_cast<double>(perfbench::allocCount() - a0) /
        static_cast<double>(r.eventsExecuted));
    untracedWalls.push_back(u.wall);

    perfbench::mobilityProbe() = {};
    const Timed t = runAudited(gate, "traced", wl, traced, &r);
    const glr::spanner::SpannerCacheStats sc =
        glr::spanner::localSpannerCacheStats();
    tracedWalls.push_back(t.wall);
    const perfbench::MobilityProbe& mp = perfbench::mobilityProbe();
    mobilityCalls.insert(mp.calls);
    spannerCalls.insert(sc.hits + sc.misses);
    spannerHits.insert(sc.hits);
    if (mp.sampled > 0) {
      mobilityNs.push_back(mp.sampledNs / static_cast<double>(mp.sampled) -
                           clockNs);
    }
  }
  // Exact counts must repeat run to run, like every ScenarioResult field.
  gate.record("counter-repeat",
              mobilityCalls.size() == 1 && spannerCalls.size() == 1 &&
                      spannerHits.size() == 1
                  ? ""
                  : "instrumented counts differ between identical runs");

  const double replayBudget = opt.seconds / 2 / 5;
  const perfbench::ViewSet views = perfbench::buildViews(cfg);
  const perfbench::ReplayCost spanner =
      perfbench::replaySpanner(views, cfg.witnessRule, replayBudget);
  const perfbench::ReplayCost delaunay =
      perfbench::replayDelaunay(views, replayBudget);
  const std::size_t depth = 4 * static_cast<std::size_t>(cfg.numNodes);
  const perfbench::ReplayCost kernel =
      perfbench::replayKernel(cfg, depth, replayBudget);
  const auto occupancy =
      static_cast<std::size_t>(std::lround(std::max(1.0, r.avgPeakStorage)));
  const perfbench::ReplayCost buffer =
      perfbench::replayBuffer(cfg, occupancy, replayBudget);
  const auto tableSize =
      static_cast<std::size_t>(std::lround(views.locationTableSize));
  const perfbench::ReplayCost location =
      perfbench::replayLocation(cfg, tableSize, replayBudget);

  const double wall = perfbench::median(untracedWalls);
  const double calls = static_cast<double>(*spannerCalls.begin());
  const double hits = static_cast<double>(*spannerHits.begin());
  const double mobCalls = static_cast<double>(*mobilityCalls.begin());
  const double mobNs = mobilityNs.empty() ? 0.0 : perfbench::median(mobilityNs);
  const double spannerUs = spanner.nsPerOp / 1e3;

  std::printf("replay inputs: %zu local views (mean size %.3f), kernel depth "
              "%zu, buffer occupancy %zu (limit %s), location table %zu ids\n",
              views.views.size(), views.meanViewSize, depth, occupancy,
              cfg.storageLimit == glr::dtn::kUnlimitedStorage
                  ? "none"
                  : std::to_string(cfg.storageLimit).c_str(),
              tableSize);
  std::printf("replay passes: spanner %d, delaunay %d, kernel %d, buffer %d, "
              "location %d; clock pair %.1f ns; %zu untraced/traced pairs\n",
              spanner.passes, delaunay.passes, kernel.passes, buffer.passes,
              location.passes, clockNs, untracedWalls.size());

  const std::vector<Value> values = {
      metric("spanner.calls", calls, true),
      metric("spanner.memo_hit_ratio", calls > 0 ? hits / calls : 0.0),
      metric("spanner.us_per_call", spannerUs),
      metric("spanner.mean_view_size", views.meanViewSize),
      metric("spanner.est_share", calls * spannerUs * 1e-6 / wall),
      metric("geometry.delaunay_us_per_build", delaunay.nsPerOp / 1e3),
      metric("mobility.calls", mobCalls, true),
      metric("mobility.ns_per_call", mobNs),
      metric("mobility.share", mobCalls * mobNs * 1e-9 / wall),
      metric("sim.events", static_cast<double>(r.eventsExecuted), true),
      metric("sim.ns_per_event", kernel.nsPerOp),
      metric("dtn.buffer_ns_per_op", buffer.nsPerOp),
      metric("dtn.location_ns_per_op", location.nsPerOp),
      metric("dtn.evictions", static_cast<double>(r.bufferEvictions), true),
      metric("dtn.custody_refusals", static_cast<double>(r.custodyRefusals),
             true),
      metric("dtn.send_rejects", static_cast<double>(r.sendRejects), true),
      metric("mac.data_tx", static_cast<double>(r.macDataTx), true),
      metric("mac.busy_deferrals", static_cast<double>(r.macBusyDeferrals),
             true),
      metric("mac.ack_timeouts", static_cast<double>(r.macAckTimeouts), true),
      metric("mac.queue_drops", static_cast<double>(r.macQueueDrops), true),
      metric("mac.retry_drops", static_cast<double>(r.macRetryDrops), true),
      metric("channel.collisions", static_cast<double>(r.collisions), true),
      metric("channel.air_time_s", r.airTimeSeconds),
      metric("core.data_sent", static_cast<double>(r.glrDataSent), true),
      metric("core.custody_acks", static_cast<double>(r.glrCustodyAcksSent),
             true),
      metric("core.face_transitions",
             static_cast<double>(r.glrFaceTransitions), true),
      metric("core.tx_failures", static_cast<double>(r.glrTxFailures), true),
      metric("core.useful_tx_ratio",
             r.macDataTx > 0 ? static_cast<double>(r.delivered) /
                                   static_cast<double>(r.macDataTx)
                             : 0.0),
      metric("alloc.per_event", perfbench::median(allocsPerEvent)),
      metric("bench.trace_overhead_pct",
             (perfbench::median(tracedWalls) / wall - 1.0) * 100.0),
  };
  std::printf("per-layer metrics:\n");
  for (const Value& v : values) printMetric(v, nullptr);
  return values;
}

// -------------------------------------------------------------- selftest ---

int selfTest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  const auto near = [](double a, double b) { return std::fabs(a - b) < 1e-12; };

  // Reference values from Python's statistics.quantiles(v, n=4)/median.
  struct Case {
    std::vector<double> v;
    double q1, med, q3;
  };
  const Case cases[] = {
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
      {{1, 2}, 0.75, 1.5, 2.25},
      {{3, 1, 2}, 1.0, 2.0, 3.0},
      {{0.5, 4.0, 2.25, 9.0, 1.0}, 0.75, 2.25, 6.5},
  };
  for (const Case& c : cases) {
    const perfbench::Quartiles q = perfbench::quartiles(c.v);
    expect(near(q.q1, c.q1) && near(q.median, c.med) && near(q.q3, c.q3),
           "quartiles match statistics.quantiles");
    expect(near(perfbench::median(c.v), c.med), "median");
  }
  expect(near(perfbench::median({4.0}), 4.0), "median of one sample");

  expect(perfbench::validMetricName("spanner.us_per_call"), "name ok");
  expect(perfbench::validMetricName("a-b_c.9"), "name ok (all classes)");
  expect(!perfbench::validMetricName(""), "empty name refused");
  expect(!perfbench::validMetricName(".lead"), "leading dot refused");
  expect(!perfbench::validMetricName("sp ace"), "space refused");
  expect(!perfbench::validMetricName("pct%"), "percent refused");
  expect(!perfbench::validMetricName(std::string(65, 'a')), "65 chars refused");
  std::set<std::string> seen;
  for (const Metric& m : kEndToEnd) {
    expect(perfbench::validMetricName(m.name), m.name);
    expect(seen.insert(m.name).second, "duplicate metric name");
  }
  for (const Metric& m : kPerLayer) {
    expect(perfbench::validMetricName(m.name), m.name);
    expect(seen.insert(m.name).second, "duplicate metric name");
  }

  // The mobility timing wrapper must leave a short scenario bit-identical.
  ScenarioConfig cfg = paperGlr(kGoldenSeed);
  cfg.simTime = 60.0;
  cfg.numMessages = 20;
  const ScenarioResult plain = glr::experiment::runScenario(cfg);
  ScenarioConfig wrapped = cfg;
  wrapped.mobility.model = perfbench::registerTimedMobility(cfg.mobility.model);
  perfbench::mobilityProbe() = {};
  const ScenarioResult timed = glr::experiment::runScenario(wrapped);
  expect(glr::experiment::bitIdenticalIgnoringWall(plain, timed),
         "mobility wrapper leaves the result bit-identical");
  expect(perfbench::mobilityProbe().calls > 0 &&
             perfbench::mobilityProbe().sampled ==
                 perfbench::mobilityProbe().calls /
                     perfbench::kMobilitySampleEvery,
         "mobility wrapper counts and samples calls");
  expect(audit("selftest", cfg, plain, &timed).empty(),
         "short run passes the correctness gate");

  std::printf("selftest: %s (%d failure%s)\n", failures ? "FAILED" : "ok",
              failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--commit SHA]\n"
               "       %s --list | --selftest\n"
               "workloads:",
               argv0, argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (a == "--selftest") return selfTest();
    if (a == "--list") {
      for (const Workload& w : kWorkloads) std::printf("w %s\n", w.name);
      for (const Metric& m : kEndToEnd) std::printf("0 %s %s\n", m.name, m.unit);
      for (const Metric& m : kPerLayer) std::printf("1 %s %s\n", m.name, m.unit);
      return 0;
    }
    if (!hasValue) return usage(argv[0]);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) opt.workload = &w;
      }
      if (opt.workload == nullptr) return usage(argv[0]);
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return usage(argv[0]);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(opt.seconds > 0.0)) {
        return usage(argv[0]);
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage(argv[0]);
      opt.trace = v == "1" ? 1 : 0;
    } else if (a == "--commit") {
      opt.commit = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.workload == nullptr) return usage(argv[0]);

  const ScenarioConfig cfg = opt.workload->config(opt.seed);
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
      "\"trace\": %d, \"cpu\": \"%s\", \"nproc\": %ld, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"lto\": \"%s\", \"commit\": \"%s\", "
      "\"loop\": \"closed, one scenario at a time, single-threaded\"}\n",
      opt.workload->name, static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace, jsonEscape(cpuModel()).c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), jsonEscape(compilerId()).c_str(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_LTO, jsonEscape(opt.commit).c_str());
  std::printf("config: %d nodes, %.0f x %.0f m, radius %.0f m, %.0f sim-s, "
              "traffic %s, storage %s, queue %s, index %s\n",
              cfg.numNodes, cfg.areaWidth, cfg.areaHeight, cfg.radius,
              cfg.simTime, cfg.traffic.model.c_str(),
              cfg.storageLimit == glr::dtn::kUnlimitedStorage
                  ? "unlimited"
                  : std::to_string(cfg.storageLimit).c_str(),
              cfg.kernelQueue == KernelQueue::kCalendar ? "calendar" : "heap4",
              cfg.spatialIndex == SpatialIndexMode::kTiled ? "tiled"
                                                           : "snapshot");
  std::fflush(stdout);

  Gate gate;
  const std::vector<Value> values = opt.trace == 0
                                        ? runEndToEnd(opt, gate)
                                        : runPerLayer(opt, cfg, gate);
  std::printf("gate: %d of %d runs failed (%.1f%%)\n", gate.failed,
              gate.attempted,
              gate.attempted ? 100.0 * gate.failed / gate.attempted : 0.0);
  printResultLine(gate, values);
  return gate.failed == 0 && !values.empty() ? 0 : 1;
}
