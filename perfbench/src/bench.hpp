// Shared plumbing of the perfbench binary: the run configuration, the
// outcome that becomes the final JSON line, clocks, equal-slice timing
// and order statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans and counts ("" = nowhere).
  std::string trace_out;
  /// Provenance JSON object stamped into the trace file ("" = none).
  std::string provenance;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the operations it attempted and checked, the
/// checks that failed, and its metrics in print order.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  bool correct() const { return problems.empty(); }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a failed check (a non-empty message fails the run).
  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void absorb(const std::vector<std::string>& found) {
    problems.insert(problems.end(), found.begin(), found.end());
  }
};

/// Monotonic nanoseconds.
std::uint64_t now_ns();
/// Seconds since the process started (static initialisation of the
/// binary): the start of the cold set-up that setup_s times.
double seconds_since_start();
/// Peak resident set size of this process, MiB.
double peak_rss_mib();

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples; 0 on
/// an empty set.
double quantile(std::vector<double> samples, double q);

/// Times equal slices of work and keeps the fastest one: on a host whose
/// speed swings for seconds at a time, the best slice of a run repeats
/// where the whole-run average does not.
class SliceTimer {
 public:
  void begin() { t0_ = now_ns(); }
  /// Close the slice; `units` is the work it did (steps, ops).
  void end(double units);
  /// Work per second of the fastest slice (0 before any slice).
  double best_rate() const { return best_rate_; }

 private:
  std::uint64_t t0_ = 0;
  double best_rate_ = 0.0;
};

/// Deterministic sub-seed k of the run seed (splitmix64 finaliser).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k);

// Workloads (sim_workloads.cpp) and the self-test of the checks
// (selftest.cpp).
Outcome run_tbwf_degrading(const RunConfig& cfg);
Outcome run_batched_queue(const RunConfig& cfg);
Outcome run_leader_service(const RunConfig& cfg);
Outcome run_self_test();

}  // namespace perfbench
