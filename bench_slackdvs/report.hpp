// BENCHMARK.json, result emission and the declaration check.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace dvs::bench {

struct Declared {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
  double bound = 0.0;  ///< end-to-end only: allowed worsening, share of median
};

/// The parts of BENCHMARK.json the runner uses.
struct Spec {
  int run_seconds = 10;
  std::vector<std::string> workloads;
  std::vector<Declared> end_to_end;
  std::vector<Declared> per_layer;
};

/// Throws std::runtime_error when the file is missing or malformed.
[[nodiscard]] Spec load_spec(const std::string& path);

/// Adds, with value 0, every declared per-layer metric `res` does not
/// emit: a layer the workload never reaches (the service path of a
/// simulation workload, a governor another workload runs).
void add_unreached_layers(const Spec& spec, Result& res);

/// Empty when `res` emits exactly the metrics `spec` declares for its run
/// kind (end-to-end, or per-layer when traced), each once and with its
/// declared unit; otherwise a description of the first mismatch.
[[nodiscard]] std::string check_declared(const Spec& spec, const Result& res,
                                         bool trace);

/// The driver-facing last line: correct, attempted, failed, metrics.
[[nodiscard]] std::string result_line(const Result& res);

/// Everything about one run, for --compare and for people.
void write_report(const Result& res, const RunConfig& cfg,
                  const std::string& path);

/// `<workload> <metric> <value> <unit>` lines, then detail and errors.
void print_result(const Result& res, std::ostream& out);

/// --compare: reads the end-to-end reports under two directories and, per
/// (workload, metric), prints each set's median and quartiles and checks
/// the medians' difference against the declared bound; values in "exact"
/// must be equal across every run of a (workload, seed).  Returns the
/// number of disagreements.
[[nodiscard]] int compare_sets(const Spec& spec, const std::string& set_a,
                               const std::string& set_b, std::ostream& out);

}  // namespace dvs::bench
