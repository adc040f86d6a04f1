// The simulation workloads: uni_slack, uni_engine and global_m4.
//
// Each is a fixed list of (task set, governor) simulations built from the
// seed and run serially.  Set-up generates the list and runs one reference
// pass with a DecisionAudit attached, which counts every governor decision
// and records a digest of every SimResult.  The timed region then repeats
// passes with no observers attached until the run's seconds are spent;
// every timed simulation must reproduce its reference digest and miss no
// deadline.
//
// The operation of these workloads is one scheduling decision: throughput
// is decisions per second of host time and latency is one simulation's
// host time divided by its decisions (ns/decision, as in E10), so the
// metrics do not move with the number of jobs a seed happens to generate.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "core/registry.hpp"
#include "cpu/energy_meter.hpp"
#include "cpu/processors.hpp"
#include "exp/experiment.hpp"
#include "mp/global_sim.hpp"
#include "obs/audit.hpp"
#include "sched/edf_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "task/generator.hpp"
#include "tracer.hpp"
#include "util/rng.hpp"

namespace dvs::bench {
namespace {

// Sizes: one pass takes 0.3 s to 0.6 s on a 2020s x86 core, so set-up
// (five reference passes) stays near 3 s and a 20 s timed region gives
// every simulation 30 to 60 passes to keep the fastest of.
constexpr std::size_t kUniSlackSetsPerCell = 8;  // x 12 cells x 5 governors
constexpr std::size_t kUniEngineSetsPerU = 32;   // x 4 U x 6 governors
constexpr std::size_t kGlobalSets = 80;          // x 5 governors
/// Simulations a set-up runs on one CPU before it moves to the next; a
/// move per simulation would time the hypervisor's migrations instead.
constexpr std::size_t kSetupSimsPerCpu = 32;
/// Decorated calls made before each traced simulation to calibrate the
/// tracing cost (~60 us; about 128 of them are timed).
constexpr std::size_t kCalibrationCalls = 4096;

struct SimSuite {
  cpu::Processor proc;
  Time length = 1.0;
  std::size_t cores = 0;  ///< 0: sim::simulate; M >= 1: mp::simulate_global
  Time migration_cost = 0.0;
  std::vector<std::string> governors;  ///< noDVS first: the energy reference
  std::vector<exp::Case> cases;
};

task::GeneratorConfig generator(std::size_t n, double u) {
  task::GeneratorConfig g;
  g.n_tasks = n;
  g.total_utilization = u;
  g.period_min = 0.01;
  g.period_max = 0.16;
  g.bcet_ratio = 0.1;  // actual demand uniform in [0.1, 1] x WCET
  g.grid_fraction = 0.5;
  return g;
}

void add_case(SimSuite& s, const task::GeneratorConfig& g, std::uint64_t seed,
              std::uint64_t tag) {
  const std::uint64_t case_seed = util::hash_u64(seed, tag, s.cases.size());
  util::Rng rng(case_seed);
  s.cases.push_back(
      {task::generate_task_set(g, rng), task::uniform_model(case_seed)});
}

SimSuite build_suite(const std::string& name, std::uint64_t seed,
                     bool smoke) {
  SimSuite s;
  s.length = smoke ? 0.2 : 1.0;
  const std::vector<double> utils = {0.5, 0.7, 0.9, 0.95};
  if (name == "uni_slack") {
    // The paper's setting: ideal continuous processor, slack-analysis
    // governors whose kernel sweeps dominate host time.
    s.governors = {"noDVS", "lpSEH", "lpSEH-h", "laEDF", "uniformSlack"};
    const std::size_t per_cell = smoke ? 1 : kUniSlackSetsPerCell;
    for (const std::size_t n : {8, 16, 32}) {
      for (const double u : utils) {
        for (std::size_t r = 0; r < per_cell; ++r) {
          add_case(s, generator(n, u), seed, 1);
        }
      }
    }
  } else if (name == "uni_engine") {
    // No slack kernel: the event loop, ready queue, quantization to five
    // levels, 20 us transition stalls and the energy meter dominate.
    s.proc = cpu::xscale_processor();
    s.governors = {"noDVS", "staticEDF", "lppsEDF", "ccEDF", "DRA", "AGR"};
    const std::size_t per_u = smoke ? 1 : kUniEngineSetsPerU;
    for (const double u : utils) {
      for (std::size_t r = 0; r < per_u; ++r) {
        add_case(s, generator(32, u), seed, 2);
      }
    }
  } else {
    // The global-EDF engine: shared queue, one governor query per core,
    // GFB floor, migrations charged 50 us (the E14 roster and shape).
    s.cores = 4;
    s.migration_cost = 50e-6;
    s.governors = {"noDVS", "staticEDF", "ccEDF", "DRA", "lpSEH"};
    task::GeneratorConfig g = generator(24, 2.2);
    g.allow_overload = true;
    g.max_task_utilization = 0.35;
    const std::size_t sets = smoke ? 2 : kGlobalSets;
    for (std::size_t r = 0; r < sets; ++r) add_case(s, g, seed, 3);
  }
  return s;
}

sim::SimResult run_sim(const SimSuite& s, const exp::Case& c,
                       sim::Governor& gov,
                       const task::ExecutionTimeModel& model,
                       obs::DecisionAudit* audit = nullptr,
                       std::vector<sim::VectorTrace>* traces = nullptr) {
  if (s.cores == 0) {
    sim::SimOptions o;
    o.length = s.length;
    o.audit = audit;
    if (traces != nullptr) {
      traces->resize(1);
      o.trace = &traces->front();
    }
    return sim::simulate(c.task_set, model, s.proc, gov, o);
  }
  mp::GlobalOptions o;
  o.length = s.length;
  o.n_cores = s.cores;
  o.migration_cost = s.migration_cost;
  o.audit = audit;
  o.traces = traces;
  mp::GlobalResult r = mp::simulate_global(c.task_set, model, s.proc, gov, o);
  return std::move(r.total);
}

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

std::uint64_t digest(const sim::SimResult& r) {
  const auto u = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  std::uint64_t h = util::hash_u64(bits(r.busy_energy), bits(r.idle_energy),
                                   bits(r.transition_energy));
  h = util::hash_u64(h, bits(r.busy_time), bits(r.average_speed));
  h = util::hash_u64(h, u(r.jobs_released), u(r.jobs_completed));
  h = util::hash_u64(h, u(r.deadline_misses), u(r.speed_switches));
  return util::hash_u64(h, u(r.preemptions), u(r.migrations));
}

/// What every later run of a simulation must reproduce.
struct SimRef {
  std::uint64_t digest = 0;
  std::int64_t decisions = 0;
  std::int64_t jobs = 0;
  std::int64_t preemptions = 0;
  std::int64_t switches = 0;
  std::int64_t migrations = 0;
  double energy = 0.0;
};

/// A workload after set-up.  Simulation i runs case i / G under governor
/// i % G, for G governors.
struct Prepared {
  SimSuite suite;
  std::vector<core::GovernorFactory> make;
  std::vector<SimRef> refs;
  std::int64_t decisions = 0;  ///< per pass

  [[nodiscard]] std::size_t sims() const { return refs.size(); }
  [[nodiscard]] std::size_t governor_of(std::size_t i) const {
    return i % suite.governors.size();
  }
  [[nodiscard]] const exp::Case& case_of(std::size_t i) const {
    return suite.cases[i / suite.governors.size()];
  }
};

std::string sim_label(const Prepared& p, std::size_t i) {
  return "simulation " + std::to_string(i) + " (" +
         p.suite.governors[p.governor_of(i)] + ")";
}

void check(const sim::SimResult& r, const Prepared& p, std::size_t i,
           Result& res) {
  if (r.deadline_misses != 0) {
    res.fail(sim_label(p, i) + " missed " +
             std::to_string(r.deadline_misses) + " deadlines");
  }
  if (digest(r) != p.refs[i].digest) {
    res.fail(sim_label(p, i) + " differs from its reference run");
  }
}

/// Builds the suite and runs the reference pass; with a `rotation`, every
/// kSetupSimsPerCpu simulations of that pass move to the next CPU.
Prepared prepare(const RunConfig& cfg, Result& res,
                 CpuRotation* rotation = nullptr) {
  Prepared p{build_suite(cfg.workload, cfg.seed, cfg.smoke), {}, {}, 0};
  for (const auto& g : p.suite.governors) {
    p.make.push_back(core::governor_factory(g));
  }
  p.refs.resize(p.suite.cases.size() * p.suite.governors.size());
  for (std::size_t i = 0; i < p.sims(); ++i) {
    if (rotation != nullptr && i % kSetupSimsPerCpu == 0) rotation->step();
    obs::DecisionAudit audit;
    try {
      const auto gov = p.make[p.governor_of(i)]();
      const sim::SimResult r = run_sim(p.suite, p.case_of(i), *gov,
                                       *p.case_of(i).workload, &audit);
      if (r.deadline_misses != 0) {
        res.fail(sim_label(p, i) + " missed deadlines in set-up");
      }
      p.refs[i] = {digest(r),
                   static_cast<std::int64_t>(audit.records().size()),
                   r.jobs_released,
                   r.preemptions,
                   r.speed_switches,
                   r.migrations,
                   r.total_energy()};
    } catch (const std::exception& e) {
      res.fail(sim_label(p, i) + " threw in set-up: " + e.what());
    }
    p.decisions += p.refs[i].decisions;
  }
  return p;
}

/// Mean over (case, governor other than noDVS) of E / E_noDVS.
double energy_norm(const Prepared& p) {
  const std::size_t g = p.suite.governors.size();
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t k = 0; k < p.suite.cases.size(); ++k) {
    const double reference = p.refs[k * g].energy;
    for (std::size_t j = 1; j < g; ++j) {
      sum += p.refs[k * g + j].energy / reference;
      ++n;
    }
  }
  return sum / static_cast<double>(n);
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string exact_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One digest over every reference result, in simulation order.
std::uint64_t pass_digest(const Prepared& p) {
  std::uint64_t h = 0;
  for (const SimRef& r : p.refs) h = util::hash_u64(h, r.digest);
  return h;
}

void add_exact(const Prepared& p, Result& res) {
  std::int64_t jobs = 0;
  for (const SimRef& r : p.refs) jobs += r.jobs;
  res.exact.emplace_back("energy_norm", exact_double(energy_norm(p)));
  res.exact.emplace_back("decisions_per_pass", std::to_string(p.decisions));
  res.exact.emplace_back("jobs_per_pass", std::to_string(jobs));
  res.exact.emplace_back("result_digest", hex(pass_digest(p)));
}

Result run_timed(const RunConfig& cfg) {
  Result res;
  res.workload = cfg.workload;
  // Each set-up runs its simulations across every CPU in turn, so that it
  // meets every core's neighbours rather than one core's, and the median
  // of the set-ups follows the host's average state.
  CpuRotation rotation(false);
  const int setups = cfg.smoke ? 2 : 5;
  std::vector<double> setup_s;
  Prepared p;
  for (int k = 0; k < setups; ++k) {
    const auto t0 = Clock::now();
    Prepared q = prepare(cfg, res, &rotation);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (k > 0 && pass_digest(q) != pass_digest(p)) {
      res.fail("set-up " + std::to_string(k) + " is not reproducible");
    }
    p = std::move(q);
  }

  // Each simulation keeps its fastest pass, and each pass runs on the next
  // CPU.  Other tenants of a shared host slow a pass down through the
  // caches and memory they share with it, by up to half and for seconds to
  // minutes, and never speed it up; so the minimum over passes spread
  // across cores and time is what the code costs, where a median would
  // measure the neighbours as well.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> best_ns(p.sims(), inf);
  std::vector<double> best_cpu_ns(p.sims(), inf);
  std::vector<double> pass_rate;
  const std::int64_t min_passes = cfg.smoke ? 2 : 3;
  std::int64_t passes = 0;
  const auto begin = Clock::now();
  while (passes < min_passes ||
         seconds_between(begin, Clock::now()) < cfg.seconds) {
    rotation.step();
    const auto pass0 = Clock::now();
    for (std::size_t i = 0; i < p.sims(); ++i) {
      const exp::Case& c = p.case_of(i);
      ++res.attempted;
      sim::SimResult r;
      const double cpu0 = thread_cpu_ns();
      const auto t0 = Clock::now();
      try {
        const auto gov = p.make[p.governor_of(i)]();
        r = run_sim(p.suite, c, *gov, *c.workload);
      } catch (const std::exception& e) {
        res.fail(sim_label(p, i) + " threw: " + e.what());
        continue;
      }
      best_ns[i] = std::min(best_ns[i], ns_between(t0, Clock::now()));
      best_cpu_ns[i] = std::min(best_cpu_ns[i], thread_cpu_ns() - cpu0);
      check(r, p, i, res);
    }
    pass_rate.push_back(static_cast<double>(p.decisions) /
                        seconds_between(pass0, Clock::now()));
    ++passes;
  }

  const std::size_t g_count = p.suite.governors.size();
  std::vector<double> gov_ns(g_count, 0.0);
  std::vector<double> gov_decisions(g_count, 0.0);
  std::vector<double> us_per_decision;
  std::vector<std::vector<double>> gov_us_per_decision(g_count);
  double total_ns = 0.0;
  double total_cpu_ns = 0.0;
  for (std::size_t i = 0; i < p.sims(); ++i) {
    const auto decisions = static_cast<double>(p.refs[i].decisions);
    total_ns += best_ns[i];
    total_cpu_ns += best_cpu_ns[i];
    gov_ns[p.governor_of(i)] += best_ns[i];
    gov_decisions[p.governor_of(i)] += decisions;
    if (decisions > 0) {
      us_per_decision.push_back(best_ns[i] / 1e3 / decisions);
      gov_us_per_decision[p.governor_of(i)].push_back(us_per_decision.back());
    }
  }
  // Governors differ in cost per decision by up to 5x, so the simulations
  // form one cluster per governor and a quantile over all of them lands in
  // a sparse gap between clusters, where it jumps with the seed.  Latency
  // quantiles are therefore taken per governor and averaged over them.
  const auto gov_quantile = [&](double q) {
    double sum = 0.0;
    for (const auto& v : gov_us_per_decision) sum += quantile(v, q);
    return sum / static_cast<double>(g_count);
  };
  const auto decisions = static_cast<double>(p.decisions);
  res.metric("setup_s", median(setup_s), "s");
  res.metric("throughput", decisions / (total_ns * 1e-9), "1/s");
  res.metric("latency_p50_us", gov_quantile(0.50), "us");
  res.metric("latency_p90_us", gov_quantile(0.90), "us");
  res.detail.emplace_back("cpu_us_per_op", per(total_cpu_ns / 1e3, decisions));
  res.detail.emplace_back("peak_rss_mb", peak_rss_mb());
  res.detail.emplace_back("passes", static_cast<double>(passes));
  res.detail.emplace_back("sims_per_pass", static_cast<double>(p.sims()));
  res.detail.emplace_back("decisions_per_pass", decisions);
  res.detail.emplace_back("sim_p50_us", quantile(us_per_decision, 0.50));
  res.detail.emplace_back("sim_p90_us", quantile(us_per_decision, 0.90));
  res.detail.emplace_back("sim_p99_us", quantile(us_per_decision, 0.99));
  res.detail.emplace_back("sims_per_s",
                          static_cast<double>(p.sims()) / (total_ns * 1e-9));
  res.detail.emplace_back("pass_throughput.q1", quantile(pass_rate, 0.25));
  res.detail.emplace_back("pass_throughput.median", quantile(pass_rate, 0.50));
  res.detail.emplace_back("pass_throughput.q3", quantile(pass_rate, 0.75));
  for (std::size_t g = 0; g < g_count; ++g) {
    res.detail.emplace_back("gov." + p.suite.governors[g] + ".decision_ns",
                            per(gov_ns[g], gov_decisions[g]));
  }
  add_exact(p, res);
  return res;
}

/// The inputs the replays feed back into the ready queue and the
/// frequency scale, captured from one simulation.
struct Capture {
  enum class Op : std::uint8_t { kPush, kRemove, kSort };
  std::vector<std::pair<Op, sched::EdfEntry>> queue;
  std::vector<double> alphas;  ///< every speed the governor requested
  bool view_stale = false;     ///< queue changed since active_jobs() sorted
  bool dispatch_stale = false; ///< queue changed since the global dispatch

  void changed() {
    view_stale = true;
    dispatch_stale = true;
  }
};

/// Forwards the engine's context; an active_jobs() call on a changed queue
/// is where the engine sorts it (sched::EdfReadyQueue::sorted_into).
class ContextProxy final : public sim::SimContext {
 public:
  explicit ContextProxy(Capture& cap) : cap_(cap) {}
  void bind(const sim::SimContext& engine) { engine_ = &engine; }

  [[nodiscard]] Time now() const override { return engine_->now(); }
  [[nodiscard]] const task::TaskSet& task_set() const override {
    return engine_->task_set();
  }
  [[nodiscard]] sim::SchedulingPolicy policy() const override {
    return engine_->policy();
  }
  [[nodiscard]] double alpha_min() const override {
    return engine_->alpha_min();
  }
  [[nodiscard]] Time next_release_after(Time t) const override {
    return engine_->next_release_after(t);
  }
  [[nodiscard]] std::span<const sim::Job* const> active_jobs()
      const override {
    if (cap_.view_stale) {
      cap_.queue.push_back({Capture::Op::kSort, {}});
      cap_.view_stale = false;
    }
    return engine_->active_jobs();
  }
  [[nodiscard]] double current_speed() const override {
    return engine_->current_speed();
  }

 private:
  Capture& cap_;
  const sim::SimContext* engine_ = nullptr;
};

/// Records the ready-queue operations (the engine pushes before
/// on_release and removes before on_completion) and requested speeds.
class RecordingGovernor final : public sim::Governor {
 public:
  RecordingGovernor(sim::Governor& inner, Capture& cap, bool global)
      : inner_(inner), cap_(cap), proxy_(cap), global_(global) {}

  void on_start(const sim::SimContext& ctx) override {
    proxy_.bind(ctx);
    inner_.on_start(proxy_);
  }
  void on_release(const sim::Job& job, const sim::SimContext& ctx) override {
    proxy_.bind(ctx);
    const std::size_t slot = next_slot_++;
    slots_[key(job)] = slot;
    cap_.queue.push_back({Capture::Op::kPush,
                          {job.abs_deadline, job.task_id, job.index, slot}});
    cap_.changed();
    inner_.on_release(job, proxy_);
  }
  void on_completion(const sim::Job& job,
                     const sim::SimContext& ctx) override {
    proxy_.bind(ctx);
    const auto it = slots_.find(key(job));
    if (it != slots_.end()) {
      cap_.queue.push_back({Capture::Op::kRemove, {0.0, 0, 0, it->second}});
      slots_.erase(it);
      cap_.changed();
    }
    inner_.on_completion(job, proxy_);
  }
  [[nodiscard]] double select_speed(const sim::Job& job,
                                    const sim::SimContext& ctx) override {
    proxy_.bind(ctx);
    if (global_ && cap_.dispatch_stale) {
      // The global engine sorts the queue itself to map jobs to cores.
      cap_.queue.push_back({Capture::Op::kSort, {}});
      cap_.dispatch_stale = false;
    }
    const double alpha = inner_.select_speed(job, proxy_);
    cap_.alphas.push_back(alpha);
    return alpha;
  }
  [[nodiscard]] Time last_slack_estimate() const override {
    return inner_.last_slack_estimate();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  static std::uint64_t key(const sim::Job& job) {
    return (static_cast<std::uint64_t>(job.task_id) << 40) ^
           static_cast<std::uint64_t>(job.index);
  }

  sim::Governor& inner_;
  Capture& cap_;
  ContextProxy proxy_;
  bool global_;
  std::size_t next_slot_ = 0;
  std::unordered_map<std::uint64_t, std::size_t> slots_;
};

/// One energy-meter call replayed from a trace segment.
struct EnergyOp {
  sim::SegmentKind kind = sim::SegmentKind::kIdle;
  Time dt = 0.0;
  double value = 0.0;  ///< alpha (busy) or transition energy
  std::int32_t task = -1;
};

std::vector<std::vector<EnergyOp>> energy_ops(
    const SimSuite& s, const std::vector<sim::VectorTrace>& traces) {
  std::vector<std::vector<EnergyOp>> out;
  for (const sim::VectorTrace& t : traces) {
    const auto& segs = t.segments();
    std::vector<EnergyOp> ops;
    ops.reserve(segs.size());
    double last_alpha = 1.0;
    for (std::size_t k = 0; k < segs.size(); ++k) {
      const sim::TraceSegment& seg = segs[k];
      EnergyOp op{seg.kind, seg.end - seg.begin, seg.alpha, seg.task_id};
      if (seg.kind == sim::SegmentKind::kBusy) last_alpha = seg.alpha;
      if (seg.kind == sim::SegmentKind::kTransition) {
        double next_alpha = last_alpha;
        for (std::size_t m = k + 1; m < segs.size(); ++m) {
          if (segs[m].kind == sim::SegmentKind::kBusy) {
            next_alpha = segs[m].alpha;
            break;
          }
        }
        op.value = s.proc.transition.switch_energy(*s.proc.power, last_alpha,
                                                   next_alpha);
      }
      ops.push_back(op);
    }
    out.push_back(std::move(ops));
  }
  return out;
}

/// Feeds one simulation's captured inputs through the layers' public
/// functions, one span per layer.
void replay(Tracer& tracer, const SimSuite& s, std::size_t n_tasks,
            const Capture& cap,
            const std::vector<std::vector<EnergyOp>>& energy) {
  {
    sched::EdfReadyQueue q;
    q.reserve(cap.queue.size());
    std::vector<sched::EdfEntry> sorted;
    sorted.reserve(cap.queue.size());
    const auto t0 = Clock::now();
    for (const auto& [op, e] : cap.queue) {
      switch (op) {
        case Capture::Op::kPush:
          q.push(e);
          break;
        case Capture::Op::kRemove:
          if (!q.empty() && q.top().slot == e.slot) {
            q.pop();
          } else {
            (void)q.remove_slot(e.slot);
          }
          break;
        case Capture::Op::kSort:
          q.sorted_into(sorted);
          break;
      }
    }
    tracer.close(Layer::kQueue, t0);
    keep(sorted);
  }
  {
    double acc = 0.0;
    const auto t0 = Clock::now();
    for (const double a : cap.alphas) acc += s.proc.scale.quantize_up(a);
    tracer.close(Layer::kQuantize, t0);
    keep(acc);
  }
  {
    std::vector<cpu::EnergyMeter> meters(
        energy.size(), cpu::EnergyMeter(s.proc.power, n_tasks));
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < energy.size(); ++c) {
      for (const EnergyOp& op : energy[c]) {
        switch (op.kind) {
          case sim::SegmentKind::kBusy:
            meters[c].add_busy(op.dt, op.value, op.task);
            break;
          case sim::SegmentKind::kIdle:
            meters[c].add_idle(op.dt);
            break;
          case sim::SegmentKind::kTransition:
            meters[c].add_transition(op.dt, op.value);
            break;
        }
      }
    }
    tracer.close(Layer::kEnergy, t0);
    keep(meters);
  }
}

Result run_traced(const RunConfig& cfg) {
  Result res;
  res.workload = cfg.workload;
  const Prepared p = prepare(cfg, res);
  const std::size_t g_count = p.suite.governors.size();

  // Each simulation runs twice back to back, untraced and with the
  // decorated governor and execution-time model, in alternating order (the
  // second run finds warmer caches).  The untraced wall is what the ledger
  // must account for; pairing keeps a change in the host's speed, and the
  // order, out of the comparison.
  Tracer tracer;
  double untraced_ns = 0.0;
  std::vector<double> gov_untraced_ns(g_count, 0.0);
  std::vector<double> gov_traced_ns(g_count, 0.0);
  // Timed select_speed ns, timed calls and all calls, per governor.
  std::vector<double> gov_select_ns(g_count, 0.0);
  std::vector<double> gov_select_timed(g_count, 0.0);
  std::vector<double> gov_selects(g_count, 0.0);
  std::vector<double> call_ns;
  for (std::size_t i = 0; i < p.sims(); ++i) {
    const exp::Case& c = p.case_of(i);
    const std::size_t g = p.governor_of(i);
    const double select0 = tracer.timed_ns(Layer::kSelect);
    const std::int64_t timed0 = tracer.timed(Layer::kSelect);
    const std::int64_t selects0 = tracer.count(Layer::kSelect);
    for (const bool traced : {i % 2 == 0, i % 2 != 0}) {
      ++res.attempted;
      try {
        const auto gov = p.make[g]();
        if (traced) {
          tracer.set_calibration(calibrate(kCalibrationCalls));
          call_ns.push_back(tracer.calibration().call_ns);
          TimingGovernor timed_gov(*gov, tracer);
          TimingModel timed_model(*c.workload, tracer);
          const auto t0 = tracer.begin_op(static_cast<std::int64_t>(i));
          const sim::SimResult r = run_sim(p.suite, c, timed_gov, timed_model);
          gov_traced_ns[g] += tracer.end_op(t0);
          check(r, p, i, res);
        } else {
          const auto t0 = Clock::now();
          const sim::SimResult r = run_sim(p.suite, c, *gov, *c.workload);
          const double ns = ns_between(t0, Clock::now());
          untraced_ns += ns;
          gov_untraced_ns[g] += ns;
          check(r, p, i, res);
        }
      } catch (const std::exception& e) {
        res.fail(sim_label(p, i) + " threw: " + e.what());
      }
    }
    const std::int64_t selects = tracer.count(Layer::kSelect) - selects0;
    if (selects != p.refs[i].decisions) {
      res.fail(sim_label(p, i) + " made " + std::to_string(selects) +
               " decisions when traced, " +
               std::to_string(p.refs[i].decisions) + " in set-up");
    }
    gov_select_ns[g] += tracer.timed_ns(Layer::kSelect) - select0;
    gov_select_timed[g] +=
        static_cast<double>(tracer.timed(Layer::kSelect) - timed0);
    gov_selects[g] += static_cast<double>(selects);
  }

  // Capture pass + replays of the ready queue, quantizer and energy meter.
  std::int64_t queue_ops = 0;
  for (std::size_t i = 0; i < p.sims(); ++i) {
    const exp::Case& c = p.case_of(i);
    Capture cap;
    std::vector<sim::VectorTrace> traces;
    ++res.attempted;
    try {
      const auto gov = p.make[p.governor_of(i)]();
      RecordingGovernor rec(*gov, cap, p.suite.cores > 0);
      const sim::SimResult r =
          run_sim(p.suite, c, rec, *c.workload, nullptr, &traces);
      check(r, p, i, res);
    } catch (const std::exception& e) {
      res.fail(sim_label(p, i) + " threw when captured: " + e.what());
      continue;
    }
    queue_ops += static_cast<std::int64_t>(cap.queue.size());
    tracer.tag(static_cast<std::int64_t>(i));
    replay(tracer, p.suite, c.task_set.size(), cap,
           energy_ops(p.suite, traces));
  }

  const double sims = static_cast<double>(p.sims());
  const double op_ns = tracer.op_ns();
  const auto share = [&](Layer l) { return tracer.self_ns(l) / op_ns; };
  const auto per_op = [&](std::int64_t n) {
    return static_cast<double>(n) / sims;
  };
  std::int64_t jobs = 0, preemptions = 0, switches = 0, migrations = 0;
  std::vector<double> gov_decisions(g_count, 0.0);
  for (std::size_t i = 0; i < p.sims(); ++i) {
    const SimRef& r = p.refs[i];
    jobs += r.jobs;
    preemptions += r.preemptions;
    switches += r.switches;
    migrations += r.migrations;
    gov_decisions[p.governor_of(i)] += static_cast<double>(r.decisions);
  }
  res.metric("core.select_share", share(Layer::kSelect), "fraction");
  res.metric("core.event_share", share(Layer::kEvent), "fraction");
  res.metric("task.draw_share", share(Layer::kDraw), "fraction");
  res.metric(p.suite.cores == 0 ? "sim.self_share" : "mp.self_share",
             share(Layer::kOp), "fraction");
  res.metric("sched.queue_share", share(Layer::kQueue), "fraction");
  res.metric("cpu.quantize_share", share(Layer::kQuantize), "fraction");
  res.metric("cpu.energy_share", share(Layer::kEnergy), "fraction");
  // Per governor: the share of its simulations spent choosing speeds, and
  // its untraced cost per decision against noDVS's in the same run (the
  // E10 figure, normalized so a slower host does not move it).
  const double nodvs_ns = per(gov_untraced_ns[0], gov_decisions[0]);
  for (std::size_t g = 0; g < g_count; ++g) {
    const std::string& name = p.suite.governors[g];
    const double select_ns =
        per(gov_select_ns[g], gov_select_timed[g]) * gov_selects[g];
    res.metric("core." + name + ".select_share",
               per(select_ns, gov_traced_ns[g]), "fraction");
    if (g > 0) {
      res.metric("gov." + name + ".decision_vs_noDVS",
                 per(gov_untraced_ns[g], gov_decisions[g]) / nodvs_ns,
                 "ratio");
    }
  }
  res.metric("core.selects_per_op", per_op(tracer.count(Layer::kSelect)),
             "count");
  res.metric("core.events_per_op", per_op(tracer.count(Layer::kEvent)),
             "count");
  res.metric("task.draws_per_op", per_op(tracer.count(Layer::kDraw)), "count");
  res.metric("sim.jobs_per_op", per_op(jobs), "count");
  res.metric("sim.preemptions_per_op", per_op(preemptions), "count");
  res.metric("sim.switches_per_op", per_op(switches), "count");
  if (p.suite.cores > 0) {
    res.metric("mp.migrations_per_op", per_op(migrations), "count");
  }
  res.metric("sched.queue_ops_per_op", per_op(queue_ops), "count");
  res.metric("bench.trace_overhead",
             tracer.raw_ns(Layer::kOp) / untraced_ns - 1.0, "fraction");
  res.metric("bench.ledger_residual", std::fabs(op_ns / untraced_ns - 1.0),
             "fraction");
  res.metric("bench.call_overhead_ns", median(call_ns), "ns");
  res.metric("bench.op_us", op_ns / sims / 1e3, "us");
  for (std::size_t g = 0; g < g_count; ++g) {
    res.detail.emplace_back(
        "gov." + p.suite.governors[g] + ".decision_ns",
        per(gov_untraced_ns[g], gov_decisions[g]));
  }
  add_exact(p, res);
  tracer.write_chrome(cfg.out_dir + "/" + cfg.workload + ".trace.json");
  return res;
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "uni_slack" || name == "uni_engine" || name == "global_m4";
}

Result run_sim_workload(const RunConfig& cfg) {
  return cfg.trace ? run_traced(cfg) : run_timed(cfg);
}

}  // namespace dvs::bench
