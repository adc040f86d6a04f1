#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <span>
#include <stdexcept>

#include "obs/json_writer.hpp"

namespace dvs::bench {
namespace {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kSelect: return "core.select_speed";
    case Layer::kEvent: return "core.event";
    case Layer::kDraw: return "task.draw";
    case Layer::kQueue: return "sched.queue_replay";
    case Layer::kQuantize: return "cpu.quantize_replay";
    case Layer::kEnergy: return "cpu.energy_replay";
    case Layer::kParse: return "obs.parse_json";
    case Layer::kAdmit: return "svc.admit";
    case Layer::kPlan: return "svc.plan";
    case Layer::kHandle: return "svc.handle";
    case Layer::kCount: break;
  }
  return "?";
}

/// A governor that does nothing, behind a context that knows nothing:
/// calibration times the decorator around no work.
class NullGovernor final : public sim::Governor {
 public:
  [[nodiscard]] double select_speed(const sim::Job& /*job*/,
                                    const sim::SimContext& /*ctx*/) override {
    return 1.0;
  }
  [[nodiscard]] std::string name() const override { return "null"; }
};

class NullContext final : public sim::SimContext {
 public:
  [[nodiscard]] Time now() const override { return 0.0; }
  [[nodiscard]] const task::TaskSet& task_set() const override { return ts_; }
  [[nodiscard]] sim::SchedulingPolicy policy() const override {
    return sim::SchedulingPolicy::kEdf;
  }
  [[nodiscard]] double alpha_min() const override { return 0.0; }
  [[nodiscard]] Time next_release_after(Time t) const override { return t; }
  [[nodiscard]] std::span<const sim::Job* const> active_jobs()
      const override {
    return {};
  }
  [[nodiscard]] double current_speed() const override { return 1.0; }

 private:
  task::TaskSet ts_;
};

/// Nanoseconds per call of `g->select_speed` over `n` calls.  The volatile
/// pointer keeps the call virtual, as it is inside the engines.
double ns_per_call(sim::Governor* volatile const& g, const sim::Job& job,
                   const sim::SimContext& ctx, std::size_t n) {
  double acc = 0.0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) acc += g->select_speed(job, ctx);
  const double ns = ns_between(t0, Clock::now());
  keep(acc);
  return ns / static_cast<double>(n);
}

}  // namespace

Calibration calibrate(std::size_t calls) {
  NullGovernor inner;
  NullContext ctx;
  const sim::Job job;
  Tracer scratch(0);
  TimingGovernor decorated(inner, scratch);
  sim::Governor* volatile direct = &inner;
  sim::Governor* volatile wrapped = &decorated;
  const double bare = ns_per_call(direct, job, ctx, calls);
  const auto op = scratch.begin_op(0);
  const double traced = ns_per_call(wrapped, job, ctx, calls);
  scratch.end_op(op);
  const double raw =
      per(scratch.raw_ns(Layer::kSelect),
          static_cast<double>(scratch.timed(Layer::kSelect)));
  return {std::max(0.0, raw - bare), std::max(0.0, traced - bare)};
}

Tracer::Tracer(std::size_t max_stored_spans)
    : epoch_(Clock::now()), max_stored_spans_(max_stored_spans) {
  spans_.reserve(max_stored_spans);
}

Clock::time_point Tracer::begin_op(std::int64_t id) {
  op_ = id;
  op_calls_ = 0;
  const auto t0 = Clock::now();
  const double at = ns_between(epoch_, t0);
  op_span_ = store({Layer::kOp, at, at, id, -1});
  return t0;
}

double Tracer::end_op(Clock::time_point t0) {
  const auto t1 = Clock::now();
  const double d = ns_between(t0, t1);
  const auto i = static_cast<std::size_t>(Layer::kOp);
  raw_ns_[i] += d;
  ++count_[i];
  ++timed_[i];
  if (op_span_ >= 0) {
    spans_[static_cast<std::size_t>(op_span_)].end_ns = ns_between(epoch_, t1);
  }
  op_span_ = kNoOp;
  const double calibrated =
      d - cal_.empty_ns - cal_.call_ns * static_cast<double>(op_calls_);
  op_ns_ += calibrated;
  return calibrated;
}

double Tracer::close(Layer layer, Clock::time_point t0) {
  const auto t1 = Clock::now();
  const double d = ns_between(t0, t1);
  const auto i = static_cast<std::size_t>(layer);
  raw_ns_[i] += d;
  ++count_[i];
  ++timed_[i];
  const double calibrated = d - cal_.empty_ns;
  timed_ns_[i] += calibrated;
  const bool inside = op_span_ != kNoOp;
  if (inside) {
    child_[i] = true;
    ++op_calls_;
  }
  (void)store({layer, ns_between(epoch_, t0), ns_between(epoch_, t1), op_,
               inside ? op_span_ : -1});
  return calibrated;
}

double Tracer::self_ns(Layer layer) const {
  const auto scaled = [&](std::size_t i) {
    return timed_[i] > 0 ? timed_ns_[i] * static_cast<double>(count_[i]) /
                               static_cast<double>(timed_[i])
                         : 0.0;
  };
  if (layer != Layer::kOp) return scaled(static_cast<std::size_t>(layer));
  double children = 0.0;
  for (std::size_t i = 0; i < kLayers; ++i) {
    if (child_[i]) children += scaled(i);
  }
  return op_ns_ - children;
}

void Tracer::write_chrome(const std::string& path) const {
  std::string out;
  obs::JsonWriter j(out);
  j.begin_object().key("traceEvents").begin_array();
  for (const Span& s : spans_) {
    j.begin_object()
        .kv("name", layer_name(s.layer))
        .kv("cat", "bench")
        .kv("ph", "X")
        .kv("ts", s.begin_ns / 1e3)
        .kv("dur", (s.end_ns - s.begin_ns) / 1e3)
        .kv("pid", 1)
        .kv("tid", 1);
    j.key("args").begin_object().kv("op", s.op).kv("parent", s.parent);
    j.end_object().end_object();
  }
  j.end_array().kv("displayTimeUnit", "ns").end_object();
  std::ofstream f(path);
  f << out << '\n';
  if (!f) throw std::runtime_error("cannot write " + path);
}

}  // namespace dvs::bench
