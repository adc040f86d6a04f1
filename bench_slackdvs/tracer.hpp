// Bench-side tracing for the per-layer run.
//
// Spans are recorded from outside the program, around calls into each
// layer's public functions: decorators wrap the governor and the
// execution-time model, and the runner times whole simulate() calls,
// requests and replays.  A span's raw length includes part of the clock
// reads that delimit it, and each decorated call adds its reads and
// bookkeeping to the span around it; both costs are calibrated next to the
// traced work and subtracted, so the ledger reconciles with the untraced
// wall time.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sim/governor.hpp"
#include "task/workload.hpp"

namespace dvs::bench {

enum class Layer : std::uint8_t {
  kOp,        ///< one operation: a simulate() call or a request round trip
  kSelect,    ///< sim::Governor::select_speed
  kEvent,     ///< sim::Governor::on_start / on_release / on_completion
  kDraw,      ///< task::ExecutionTimeModel::draw
  kQueue,     ///< sched::EdfReadyQueue replay
  kQuantize,  ///< cpu::FrequencyScale::quantize_up replay
  kEnergy,    ///< cpu::EnergyMeter replay
  kParse,     ///< obs::parse_json
  kAdmit,     ///< svc::Session::admit
  kPlan,      ///< svc::Session::plan
  kHandle,    ///< svc::ProtocolHandler::handle
  kCount
};

/// What tracing itself costs.
struct Calibration {
  double empty_ns = 0.0;  ///< raw length a span adds to the call it wraps
  /// Time one decorated call adds to the span around it, averaged over
  /// timed and untimed calls at the tracer's sampling rate.
  double call_ns = 0.0;
};

class Tracer {
 public:
  static constexpr std::size_t kMaxStoredSpans = 100000;
  /// Decorated calls are timed with probability 2^-kSampleShift.
  static constexpr unsigned kSampleShift = 5;

  explicit Tracer(std::size_t max_stored_spans = kMaxStoredSpans);

  /// The correction applied to spans closed from now on.  The cost of a
  /// clock read moves with the host's load, so callers re-measure it
  /// (calibrate()) next to the work they trace.
  void set_calibration(const Calibration& c) { cal_ = c; }
  [[nodiscard]] const Calibration& calibration() const { return cal_; }

  /// Whether a decorator should time this call.  Decorators time one call
  /// in 2^kSampleShift at random and only count the rest (tally()); a
  /// layer's time is scaled up from its timed calls.  The engines make
  /// thousands of ~20 ns governor calls per simulation, and timing every
  /// one would double the run and leave the ledger at the mercy of the
  /// per-span correction.
  [[nodiscard]] bool sampled() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return (rng_ & kSampleMask) == 0;
  }
  /// Counts an untimed call of `layer`.
  void tally(Layer layer) {
    ++count_[static_cast<std::size_t>(layer)];
    if (op_span_ != kNoOp) ++op_calls_;
  }

  /// Opens operation `id`; spans closed before end_op() are its children.
  Clock::time_point begin_op(std::int64_t id);
  /// Closes the operation's span, opened at `t0`; returns its calibrated
  /// length in ns.
  double end_op(Clock::time_point t0);
  /// Tags the spans closed from now on, outside any operation, with `id`.
  void tag(std::int64_t id) { op_ = id; }
  /// Records a span of `layer` from `t0` to now; returns its calibrated
  /// length in ns.
  double close(Layer layer, Clock::time_point t0);

  [[nodiscard]] double raw_ns(Layer l) const {
    return raw_ns_[static_cast<std::size_t>(l)];
  }
  /// Calls of `layer`, timed or not.
  [[nodiscard]] std::int64_t count(Layer l) const {
    return count_[static_cast<std::size_t>(l)];
  }
  /// Timed calls of `layer`.
  [[nodiscard]] std::int64_t timed(Layer l) const {
    return timed_[static_cast<std::size_t>(l)];
  }
  /// Calibrated length of the timed calls of `layer`, summed, in ns.
  [[nodiscard]] double timed_ns(Layer l) const {
    return timed_ns_[static_cast<std::size_t>(l)];
  }

  /// Calibrated time inside operations: operation spans minus the clock
  /// reads and bookkeeping of every span recorded inside them.
  [[nodiscard]] double op_ns() const { return op_ns_; }
  /// Calibrated time of `layer`, scaled from its timed calls to all of
  /// them; for kOp the operations' self time, op_ns() minus the children.
  [[nodiscard]] double self_ns(Layer layer) const;

  /// Writes the stored spans in Chrome Trace Event format.
  void write_chrome(const std::string& path) const;

 private:
  static constexpr std::int32_t kNoOp = -2;  ///< no operation is open

  struct Span {
    Layer layer = Layer::kOp;
    double begin_ns = 0.0;
    double end_ns = 0.0;
    std::int64_t op = -1;       ///< simulation or query id
    std::int32_t parent = -1;   ///< index of the enclosing span, or -1
  };

  /// Stores a span while there is room; its index, or -1.
  std::int32_t store(const Span& s) {
    if (spans_.size() >= max_stored_spans_) return -1;
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  static constexpr std::uint64_t kSampleMask =
      (std::uint64_t{1} << kSampleShift) - 1;
  static constexpr auto kLayers = static_cast<std::size_t>(Layer::kCount);
  std::array<double, kLayers> raw_ns_{};
  std::array<double, kLayers> timed_ns_{};
  std::array<std::int64_t, kLayers> count_{};
  std::array<std::int64_t, kLayers> timed_{};
  std::array<bool, kLayers> child_{};  ///< layer was timed inside operations
  double op_ns_ = 0.0;
  std::int64_t op_calls_ = 0;  ///< decorated calls inside the open operation
  std::int64_t op_ = -1;
  std::int32_t op_span_ = kNoOp;  ///< stored span of the open operation
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
  Calibration cal_;
  Clock::time_point epoch_;
  std::size_t max_stored_spans_;
  std::vector<Span> spans_;
};

/// Measures the tracing cost with `calls` decorated calls of a governor
/// that does nothing against the same calls made undecorated.
[[nodiscard]] Calibration calibrate(std::size_t calls);

/// Times the governor's callbacks; forwards everything else unchanged.
class TimingGovernor final : public sim::Governor {
 public:
  TimingGovernor(sim::Governor& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void on_start(const sim::SimContext& ctx) override {
    timed(Layer::kEvent, [&] { inner_.on_start(ctx); });
  }
  void on_release(const sim::Job& job, const sim::SimContext& ctx) override {
    timed(Layer::kEvent, [&] { inner_.on_release(job, ctx); });
  }
  void on_completion(const sim::Job& job,
                     const sim::SimContext& ctx) override {
    timed(Layer::kEvent, [&] { inner_.on_completion(job, ctx); });
  }
  [[nodiscard]] double select_speed(const sim::Job& job,
                                    const sim::SimContext& ctx) override {
    double alpha = 0.0;
    timed(Layer::kSelect, [&] { alpha = inner_.select_speed(job, ctx); });
    return alpha;
  }
  [[nodiscard]] Time last_slack_estimate() const override {
    return inner_.last_slack_estimate();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  template <typename Call>
  void timed(Layer layer, const Call& call) {
    if (!tracer_.sampled()) {
      tracer_.tally(layer);
      call();
      return;
    }
    const auto t0 = Clock::now();
    call();
    (void)tracer_.close(layer, t0);
  }

  sim::Governor& inner_;
  Tracer& tracer_;
};

/// Times the execution-time draws.
class TimingModel final : public task::ExecutionTimeModel {
 public:
  TimingModel(const task::ExecutionTimeModel& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] Work draw(const task::Task& task,
                          std::int64_t job_index) const override {
    if (!tracer_.sampled()) {
      tracer_.tally(Layer::kDraw);
      return inner_.draw(task, job_index);
    }
    const auto t0 = Clock::now();
    const Work w = inner_.draw(task, job_index);
    (void)tracer_.close(Layer::kDraw, t0);
    return w;
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const task::ExecutionTimeModel& inner_;
  Tracer& tracer_;
};

}  // namespace dvs::bench
