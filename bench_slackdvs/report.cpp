#include "report.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/json_mini.hpp"
#include "obs/json_writer.hpp"

namespace dvs::bench {

namespace {

const obs::JsonValue& member(const obs::JsonValue& v, const char* key) {
  const obs::JsonValue* m = v.find(key);
  if (m == nullptr) {
    throw std::runtime_error(std::string("BENCHMARK.json: missing '") + key +
                             "'");
  }
  return *m;
}

std::vector<Declared> declared(const obs::JsonValue& list, bool bounded) {
  std::vector<Declared> out;
  for (const obs::JsonValue& m : list.array) {
    Declared d;
    d.name = member(m, "name").string;
    d.unit = member(m, "unit").string;
    d.better = member(m, "better").string;
    if (bounded) d.bound = member(m, "bound").number;
    out.push_back(d);
  }
  return out;
}

}  // namespace

Spec load_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const obs::JsonValue doc = obs::parse_json(text.str());
  Spec s;
  s.run_seconds = static_cast<int>(member(doc, "run_seconds").number);
  for (const obs::JsonValue& w : member(doc, "workloads").array) {
    s.workloads.push_back(member(w, "name").string);
  }
  s.end_to_end = declared(member(doc, "end_to_end"), true);
  s.per_layer = declared(member(doc, "per_layer"), false);
  return s;
}

void add_unreached_layers(const Spec& spec, Result& res) {
  for (const Declared& d : spec.per_layer) {
    const bool emitted =
        std::any_of(res.metrics.begin(), res.metrics.end(),
                    [&](const Metric& m) { return m.name == d.name; });
    if (!emitted) res.metric(d.name, 0.0, d.unit);
  }
}

std::string check_declared(const Spec& spec, const Result& res, bool trace) {
  const std::vector<Declared>& want = trace ? spec.per_layer : spec.end_to_end;
  const char* kind = trace ? "per-layer" : "end-to-end";
  std::set<std::string> seen;
  for (const Metric& m : res.metrics) {
    const auto it =
        std::find_if(want.begin(), want.end(),
                     [&](const Declared& d) { return d.name == m.name; });
    if (it == want.end()) {
      return "metric '" + m.name + "' is not a declared " + kind + " metric";
    }
    if (it->unit != m.unit) {
      return "metric '" + m.name + "' has unit '" + m.unit + "', declared '" +
             it->unit + "'";
    }
    if (!seen.insert(m.name).second) {
      return "metric '" + m.name + "' emitted twice";
    }
  }
  for (const Declared& d : want) {
    if (seen.count(d.name) == 0) {
      return "declared " + std::string(kind) + " metric '" + d.name +
             "' was not emitted";
    }
  }
  return {};
}

namespace {

void metrics_object(obs::JsonWriter& j, const Result& res) {
  j.key("metrics").begin_object();
  for (const Metric& m : res.metrics) {
    j.key(m.name).begin_object().kv("value", m.value).kv("unit", m.unit);
    j.end_object();
  }
  j.end_object();
}

}  // namespace

std::string result_line(const Result& res) {
  std::string out;
  obs::JsonWriter j(out);
  j.begin_object()
      .kv("correct", res.correct())
      .kv("attempted", res.attempted)
      .kv("failed", res.failed);
  metrics_object(j, res);
  j.end_object();
  return out;
}

void write_report(const Result& res, const RunConfig& cfg,
                  const std::string& path) {
  std::string out;
  obs::JsonWriter j(out);
  j.begin_object()
      .kv("workload", res.workload)
      .kv("seed", cfg.seed)
      .kv("seconds", cfg.seconds)
      .kv("trace", cfg.trace)
      .kv("smoke", cfg.smoke)
      .kv("correct", res.correct())
      .kv("attempted", res.attempted)
      .kv("failed", res.failed);
  j.key("errors").begin_array();
  for (const std::string& e : res.errors) j.value(e);
  j.end_array();
  metrics_object(j, res);
  j.key("exact").begin_object();
  for (const auto& [k, v] : res.exact) j.kv(k, v);
  j.end_object();
  j.key("detail").begin_object();
  for (const auto& [k, v] : res.detail) j.kv(k, v);
  j.end_object();
  j.end_object();
  std::ofstream f(path);
  f << out << '\n';
  if (!f) throw std::runtime_error("cannot write " + path);
}

void print_result(const Result& res, std::ostream& out) {
  for (const Metric& m : res.metrics) {
    out << res.workload << ' ' << m.name << ' ' << obs::json_number(m.value)
        << ' ' << m.unit << '\n';
  }
  for (const auto& [k, v] : res.detail) {
    out << "  detail " << k << ' ' << obs::json_number(v) << '\n';
  }
  for (const auto& [k, v] : res.exact) {
    out << "  exact " << k << ' ' << v << '\n';
  }
  for (const std::string& e : res.errors) out << "  FAILED " << e << '\n';
  out << "  attempted " << res.attempted << ", failed " << res.failed << '\n';
}

}  // namespace dvs::bench
