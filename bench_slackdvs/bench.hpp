// Shared types of the bench_slackdvs runner (see README.md).
//
// One invocation runs one workload and produces one Result: the declared
// end-to-end metrics (untraced run) or the declared per-layer metrics
// (traced run), the attempted/failed operation counts behind the
// correctness verdict, the values that must repeat exactly for a given
// seed, and an informational breakdown.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dvs::bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ns_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// What one invocation measures.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed region
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  bool smoke = false;     ///< tiny inputs for the smoke test
  std::string out_dir = ".bench_results";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::string workload;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  ///< the first failures, for the log
  std::vector<Metric> metrics;
  /// Values that repeat exactly for a given seed (energy, event counts,
  /// result digests); --compare requires them to be equal.
  std::vector<std::pair<std::string, std::string>> exact;
  /// Breakdown beyond the declared metrics (per governor, per request
  /// kind, quartiles); informational only.
  std::vector<std::pair<std::string, double>> detail;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
  [[nodiscard]] bool correct() const { return failed == 0 && attempted > 0; }
};

[[nodiscard]] bool is_sim_workload(const std::string& name);
[[nodiscard]] bool is_svc_workload(const std::string& name);
/// uni_slack, uni_engine, global_m4 (sim_workloads.cpp).
[[nodiscard]] Result run_sim_workload(const RunConfig& cfg);
/// svc_closed, svc_open (svc_workloads.cpp).
[[nodiscard]] Result run_svc_workload(const RunConfig& cfg);

/// `total` per item of `count`; an empty count reads as one item.
[[nodiscard]] inline double per(double total, double count) {
  return count > 0.0 ? total / count : total;
}

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples; 0 for
/// an empty set.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// User + system CPU seconds of the whole process (all threads).
[[nodiscard]] double cpu_seconds();
/// CPU time of the calling thread, in nanoseconds.
[[nodiscard]] double thread_cpu_ns();
/// Peak resident set size of the process in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Moves the calling thread, or every thread of the process, to the next
/// of the CPUs the process may run on at each step(); restores the
/// affinity it found when destroyed.
class CpuRotation {
 public:
  explicit CpuRotation(bool all_threads);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void step();

 private:
  void apply(const cpu_set_t& set) const;

  bool all_threads_;
  cpu_set_t saved_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Keeps `v` observable so the optimizer cannot drop the work behind it.
template <typename T>
inline void keep(const T& v) {
  __asm__ __volatile__("" : : "r"(&v) : "memory");
}

}  // namespace dvs::bench
