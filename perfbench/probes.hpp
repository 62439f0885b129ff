#pragma once
/// \file probes.hpp
/// Outside-in instruments the benchmark attaches to a real run without
/// touching the simulator's sources: a global allocation counter, a
/// per-run peak-RSS reset, a timing wrapper around the workload's mobility
/// model registered through the public mobility registry, and a host-speed
/// gauge.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Allocations made through operator new since the process started.
[[nodiscard]] std::uint64_t allocCount();

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS by writing
/// 5 to /proc/self/clear_refs, after returning freed heap to the OS so the
/// next run's peak is its own. False if the kernel refuses the reset.
[[nodiscard]] bool resetPeakRss();

/// VmHWM of this process in bytes (0 if /proc is unreadable).
[[nodiscard]] std::uint64_t peakRssBytes();

/// Counters of the mobility timing wrapper. Every positionAt call is
/// counted; one call in kMobilitySampleEvery is timed, so the wrapper's own
/// clock reads cost a small fraction of what an every-call span would.
struct MobilityProbe {
  std::uint64_t calls = 0;
  std::uint64_t sampled = 0;
  double sampledNs = 0.0;
};
inline constexpr std::uint64_t kMobilitySampleEvery = 16;

/// Registers (once) a mobility model named "perfbench.timed.<inner>" that
/// delegates every call to the registered model `inner` and feeds
/// mobilityProbe(). Returns the wrapper's registry name.
std::string registerTimedMobility(const std::string& inner);

MobilityProbe& mobilityProbe();

/// Cost of one steady_clock::now() pair in ns, measured on this host; the
/// mobility wrapper's sampled spans carry it and the report subtracts it.
[[nodiscard]] double clockPairOverheadNs();

/// A fixed calibration kernel owned by the benchmark, independent of the
/// simulator's code: a pointer chase through an 8 MB pseudo-random cycle
/// (memory latency, like the city workload's tables), hash-map inserts and
/// lookups (like the per-node tables) and a sort (branchy compute, like the
/// Delaunay builds). Timed next to the workload, it measures how fast the
/// host is running at that moment, so host-time metrics can be scaled to a
/// fixed host speed.
class HostGauge {
 public:
  HostGauge();
  /// One pass (~50 ms on a 4-core Xeon in its fast state); returns seconds.
  double run();

 private:
  std::vector<std::uint64_t> keys_;
  std::vector<double> values_;
  std::uint32_t pos_ = 0;
};

}  // namespace perfbench
