// Shared pieces of the repository benchmark harness (perfbench/).
//
// The harness drives the public Sinew API from outside: it generates NoBench
// inputs from a seed, runs one closed-loop client, times every request on
// the client side and, in traced runs, times each layer by calling that
// layer's public function itself. Nothing inside src/ is instrumented for it.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double NsToMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToS(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for database files and the trace; created if absent.
  std::string work_dir = ".perfbench_work";
  /// Dataset size override (0 = the workload's documented size).
  uint64_t docs = 0;
  /// Self-test hook: corrupt one expected answer in every seven, so the
  /// result oracle must report wrong results.
  bool perturb_oracle = false;
  /// SinewOptions::parallelism (the Gather degree): min(4, nproc).
  int gather_degree = 4;
};

/// Everything a run reports. Metrics keep insertion order for printing.
struct Report {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::map<std::string, std::string> info;  // fingerprint and settings
  std::vector<std::string> notes;           // human-readable detail lines
  uint64_t attempted = 0;
  uint64_t failed = 0;  // operations that returned an error
  uint64_t wrong = 0;   // operations whose result the oracle rejected

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
};

int RunNoBenchQueries(const Options& options, bool star, Report* report);
int RunDurableIngest(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
