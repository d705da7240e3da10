#ifndef VZ_PERFBENCH_LOADGEN_COMMON_H_
#define VZ_PERFBENCH_LOADGEN_COMMON_H_

// Shared plumbing of the load generator: clocks, order statistics, the
// seeded schedule generators, result accounting and span recording.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace vzb {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
inline double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  uint32_t Draw(vz::Rng* rng) const {
    const double u = rng->UniformDouble();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<uint32_t>(
        std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

/// One open-loop request: when it is due (seconds after the phase start),
/// which connection sends it, what kind of operation it is, and which input
/// (feature pool index, SVS id, or fresh-feature index) it carries.
struct Arrival {
  double due_s = 0.0;
  uint32_t conn = 0;
  uint32_t kind = 0;
  uint32_t input = 0;
};

/// Poisson arrivals at `rate` per second over `seconds`.
inline std::vector<double> PoissonTimes(vz::Rng* rng, double rate,
                                        double seconds) {
  std::vector<double> times;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng->UniformDouble()) / rate;
    if (t >= seconds) break;
    times.push_back(t);
  }
  return times;
}

/// FNV-1a over raw bytes: the schedule digest the determinism check
/// compares.
class Digest {
 public:
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
    bytes_.append(reinterpret_cast<const char*>(p), n);
  }
  template <typename T>
  void AddValue(const T& v) {
    Add(&v, sizeof(v));
  }
  uint64_t value() const { return h_; }
  std::string hex() const;
  const std::string& bytes() const { return bytes_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
  std::string bytes_;
};

/// Attempted/failed operation accounting plus the first few failure reasons.
/// Thread-safe.
class Outcome {
 public:
  void Ok() {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
  }
  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    ++failed_;
    if (reasons_.size() < 8) reasons_.push_back(why);
  }
  /// Records a failed check that is not an operation of its own (e.g. an
  /// audit mismatch found after the fact).
  void FailCheck(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
    if (reasons_.size() < 8) reasons_.push_back(why);
  }
  uint64_t attempted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return attempted_;
  }
  uint64_t failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }
  std::vector<std::string> reasons() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reasons_;
  }

 private:
  mutable std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// In-memory span log of a traced phase: one span per request (or per timed
/// layer call), written out once the run ends. Spans of one request share
/// its id; `parent` is 0 for roots.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  double start_us = 0.0;  // relative to the tracer's origin
  double end_us = 0.0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  uint64_t NextId() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }
  void Record(uint64_t id, uint64_t parent, const char* name,
              Clock::time_point start, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(
        {id, parent, name, UsBetween(origin_, start), UsBetween(origin_, end)});
  }
  /// Writes the spans as JSON lines; false on I/O failure.
  bool WriteJsonl(const std::string& path) const;
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// Named metrics with units, in insertion order of first use.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (values_.count(name) == 0) order_.push_back(name);
    values_[name] = {value, unit};
  }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second.first;
  }
  /// `{"name": {"value": v, "unit": "u"}, ...}`.
  std::string Json() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Sleeps until `deadline` (no-op when already past).
inline void SleepUntil(Clock::time_point deadline) {
  std::this_thread::sleep_until(deadline);
}

std::string JsonEscape(const std::string& s);

}  // namespace vzb

#endif  // VZ_PERFBENCH_LOADGEN_COMMON_H_
