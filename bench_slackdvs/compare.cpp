#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

#include "obs/json_mini.hpp"
#include "obs/json_writer.hpp"
#include "report.hpp"

namespace dvs::bench {
namespace {

struct Run {
  std::string workload;
  std::string seed;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> exact;
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Every end-to-end report (DIR/**/<workload>.json) under `dir`.
std::vector<Run> load_runs(const std::string& dir) {
  std::vector<Run> runs;
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (e.is_regular_file() && ends_with(name, ".json") &&
        !ends_with(name, ".trace.json") && !ends_with(name, ".layers.json")) {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    const obs::JsonValue doc = obs::parse_json(text.str());
    const obs::JsonValue* trace = doc.find("trace");
    const obs::JsonValue* workload = doc.find("workload");
    const obs::JsonValue* metrics = doc.find("metrics");
    if (workload == nullptr || metrics == nullptr ||
        (trace != nullptr && trace->boolean)) {
      continue;
    }
    Run r;
    r.workload = workload->string;
    if (const obs::JsonValue* seed = doc.find("seed")) {
      r.seed = obs::json_number(seed->number);
    }
    for (const auto& [name, m] : metrics->object) {
      if (const obs::JsonValue* v = m.find("value")) {
        r.metrics[name] = v->number;
      }
    }
    if (const obs::JsonValue* exact = doc.find("exact")) {
      for (const auto& [name, v] : exact->object) r.exact[name] = v.string;
    }
    runs.push_back(std::move(r));
  }
  return runs;
}

/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (the "exclusive" method), so the verdicts match a script's.
std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<std::int64_t>(v.size());
  if (n == 1) return {v[0], v[0], v[0]};
  std::array<double, 3> q{};
  const std::int64_t m = n + 1;
  for (std::int64_t i = 1; i <= 3; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, n - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
         v[static_cast<std::size_t>(j)] * delta) /
        4.0;
  }
  return q;
}

std::vector<double> values(const std::vector<Run>& runs,
                           const std::string& workload,
                           const std::string& metric) {
  std::vector<double> out;
  for (const Run& r : runs) {
    const auto it = r.metrics.find(metric);
    if (r.workload == workload && it != r.metrics.end()) {
      out.push_back(it->second);
    }
  }
  return out;
}

std::string summary(const std::vector<double>& v) {
  if (v.empty()) return "-";
  const auto q = quartiles(v);
  std::ostringstream s;
  s << std::setprecision(6) << q[1] << " [" << q[0] << ", " << q[2] << "] n="
    << v.size();
  return s.str();
}

}  // namespace

int compare_sets(const Spec& spec, const std::string& set_a,
                 const std::string& set_b, std::ostream& out) {
  const std::vector<Run> a = load_runs(set_a);
  const std::vector<Run> b = load_runs(set_b);
  int bad = 0;
  out << std::left << std::setw(12) << "workload" << std::setw(16) << "metric"
      << std::setw(46) << "A median [q1, q3]" << std::setw(46)
      << "B median [q1, q3]" << std::right << std::setw(9) << "diff"
      << std::setw(8) << "bound" << "\n";
  for (const std::string& w : spec.workloads) {
    for (const Declared& d : spec.end_to_end) {
      const std::vector<double> va = values(a, w, d.name);
      const std::vector<double> vb = values(b, w, d.name);
      std::string verdict;
      double diff = 0.0;
      if (va.empty() || vb.empty()) {
        verdict = "  MISSING";
        ++bad;
      } else {
        const double ma = quartiles(va)[1];
        const double mb = quartiles(vb)[1];
        diff = ma != 0.0 ? (mb - ma) / ma : (mb == 0.0 ? 0.0 : 1.0);
        if (std::fabs(diff) > d.bound) {
          verdict = "  DISAGREE";
          ++bad;
        }
      }
      out << std::left << std::setw(12) << w << std::setw(16) << d.name
          << std::setw(46) << summary(va) << std::setw(46) << summary(vb)
          << std::right << std::fixed << std::setprecision(3) << std::setw(8)
          << diff * 100.0 << "%" << std::setw(7) << d.bound * 100.0 << "%"
          << std::defaultfloat << verdict << "\n";
    }
  }
  // Exact values: one answer per (workload, seed, key) across both sets.
  std::map<std::string, std::string> first;
  for (const std::vector<Run>* set : {&a, &b}) {
    for (const Run& r : *set) {
      for (const auto& [key, v] : r.exact) {
        const std::string id = r.workload + " seed " + r.seed + " " + key;
        const auto [it, fresh] = first.emplace(id, v);
        if (!fresh && it->second != v) {
          out << "exact mismatch: " << id << ": " << it->second << " vs " << v
              << "\n";
          ++bad;
        }
      }
    }
  }
  out << first.size() << " exact values checked; "
      << (bad == 0 ? "sets agree" : "sets DISAGREE") << "\n";
  return bad;
}

}  // namespace dvs::bench
