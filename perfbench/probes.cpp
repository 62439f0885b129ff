#include "probes.hpp"

#include <malloc.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <random>
#include <unordered_map>
#include <vector>

#include "mobility/registry.hpp"

namespace {

// Relaxed: the benchmark runs scenarios on one thread; the atomic only keeps
// the counter well-defined if a library thread ever allocates.
std::atomic<std::uint64_t> gAllocs{0};

void* countedAlloc(std::size_t n) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}

void* countedAlignedAlloc(std::size_t n, std::size_t align) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align)) {
    return p;
  }
  throw std::bad_alloc{};
}

/// One anonymous private mapping, unmapped on destruction.
struct Mapping {
  explicit Mapping(std::size_t bytes)
      : data(mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)),
        size(bytes) {
    if (data == MAP_FAILED) throw std::bad_alloc{};
  }
  ~Mapping() { munmap(data, size); }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  void* data;
  std::size_t size;
};

class TimedMobility final : public glr::mobility::MobilityModel {
 public:
  explicit TimedMobility(std::unique_ptr<glr::mobility::MobilityModel> inner)
      : inner_(std::move(inner)) {}

  glr::geom::Point2 positionAt(glr::sim::SimTime t) override {
    perfbench::MobilityProbe& p = perfbench::mobilityProbe();
    if (++p.calls % perfbench::kMobilitySampleEvery != 0) {
      return inner_->positionAt(t);
    }
    const auto t0 = std::chrono::steady_clock::now();
    const glr::geom::Point2 pos = inner_->positionAt(t);
    const auto t1 = std::chrono::steady_clock::now();
    p.sampledNs += std::chrono::duration<double, std::nano>(t1 - t0).count();
    ++p.sampled;
    return pos;
  }

 private:
  std::unique_ptr<glr::mobility::MobilityModel> inner_;
};

}  // namespace

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return countedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return countedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t allocCount() { return gAllocs.load(std::memory_order_relaxed); }

bool resetPeakRss() {
  malloc_trim(0);
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

std::uint64_t peakRssBytes() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

MobilityProbe& mobilityProbe() {
  static MobilityProbe probe;
  return probe;
}

std::string registerTimedMobility(const std::string& inner) {
  const std::string name = "perfbench.timed." + inner;
  if (!glr::mobility::isMobilityModelRegistered(name)) {
    glr::mobility::registerMobilityModel(
        name, [inner](const glr::mobility::ModelParams& params,
                      glr::geom::Point2 start, glr::sim::Rng rng) {
          return std::make_unique<TimedMobility>(
              glr::mobility::makeMobilityModel(inner, params, start, rng));
        });
  }
  return name;
}

double clockPairOverheadNs() {
  constexpr int kPairs = 200000;
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    double sum = 0.0;
    for (int i = 0; i < kPairs; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto t1 = std::chrono::steady_clock::now();
      sum += std::chrono::duration<double, std::nano>(t1 - t0).count();
    }
    batches.push_back(sum / kPairs);
  }
  std::sort(batches.begin(), batches.end());
  return batches[batches.size() / 2];
}

HostGauge::HostGauge() : keys_(1 << 15), values_(1 << 14) {
  std::mt19937_64 rng{0x6761756765ULL};
  for (auto& k : keys_) k = rng() & 0xFFFFF;
  for (auto& v : values_) v = static_cast<double>(rng() >> 11) * 0x1p-53;
}

double HostGauge::run() {
  constexpr std::uint32_t kEntries = 1u << 21;  // 8 MB of uint32
  constexpr int kChaseSteps = 250000;
  const auto t0 = std::chrono::steady_clock::now();
  // A full-period LCG step as the successor: one cycle through all entries
  // with jumps no prefetcher follows. Mapped, faulted in and unmapped every
  // pass, so each pass does the same work whatever the allocator's state
  // and the gauge holds no memory while a scenario's peak RSS is measured.
  const Mapping mem{kEntries * sizeof(std::uint32_t)};
  auto* next = static_cast<std::uint32_t*>(mem.data);
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    next[i] = (i * 1664525u + 1013904223u) & (kEntries - 1);
  }
  std::uint32_t p = pos_;
  for (int i = 0; i < kChaseSteps; ++i) p = next[p];
  pos_ = p;

  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::uint64_t acc = 0;
  for (const std::uint64_t k : keys_) table[k] += k;
  for (const std::uint64_t k : keys_) acc += table.count(k ^ 1);

  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  acc += static_cast<std::uint64_t>(v[v.size() / 2] * 1e9) + p;
  asm volatile("" : : "r"(acc) : "memory");
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
