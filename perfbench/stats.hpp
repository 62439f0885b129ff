#pragma once
/// \file stats.hpp
/// Order statistics and name rules shared by the benchmark and its
/// self-test. Quartiles follow Python's statistics.quantiles(data, n=4)
/// (method "exclusive"), the definition the benchmark's spread is judged
/// by, so the figures printed here and the ones recomputed from the JSON
/// agree.

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace perfbench {

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Median of `v` (mean of the middle pair for even sizes). Throws on empty.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument{"median of no samples"};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Quartiles as statistics.quantiles(v, n=4). A single sample is its own
/// quartiles (Python refuses n < 2). Throws on empty.
[[nodiscard]] inline Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument{"quartiles of no samples"};
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

/// Metric names: 1-64 characters of [A-Za-z0-9_.-], starting with a letter
/// or digit.
[[nodiscard]] inline bool validMetricName(std::string_view s) {
  if (s.empty() || s.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(s.front())) return false;
  return std::all_of(s.begin(), s.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench
