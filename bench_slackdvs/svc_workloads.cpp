// The service workloads: svc_closed and svc_open.
//
// Both start an in-process svc::Daemon on an ephemeral loopback port and
// talk to it over real TCP.  Queries come from a pool of task sets built
// from the seed: n in {8, 16, 32}, U in [0.6, 0.95) or [1.0, 1.1) and
// constrained deadlines, so the admission test walks its demand
// checkpoints and about a fifth of the sets are rejected with a reason.
// Set-up computes the expected answer to every pooled query with an
// in-process svc::ProtocolHandler; every response of the run must match it
// byte for byte.
//
//   svc_closed  one connection in a closed loop of admit queries.
//   svc_open    one generator thread polling four connections, Poisson
//               arrivals at a fixed rate, 95% admit and 5% plan queries
//               (ccEDF + lpSEH over a 0.1 s horizon).  Latency runs from
//               each query's scheduled send time, so a stalled connection
//               charges the queries queued behind it.
//
// Both read their metrics per window of the run (see run_closed() and
// run_open()).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/json_mini.hpp"
#include "obs/json_writer.hpp"
#include "svc/daemon.hpp"
#include "svc/planner.hpp"
#include "svc/protocol.hpp"
#include "task/generator.hpp"
#include "tracer.hpp"
#include "util/rng.hpp"

namespace dvs::bench {
namespace {

constexpr std::size_t kPoolSets = 256;
constexpr std::size_t kOpenConnections = 4;
constexpr double kOpenRate = 2000.0;   // queries per second
constexpr double kPlanShare = 0.05;    // svc_open query mix
constexpr double kPlanLength = 0.1;    // simulated horizon of a plan, s
constexpr double kOpenWindowSeconds = 0.25;
constexpr std::size_t kTracedQueries = 4000;
constexpr double kTracedOpenSeconds = 2.0;
/// A query the generator sends this long after it was due counts as late.
constexpr double kLateUs = 100.0;
constexpr std::size_t kCalibrationCalls = 20000;
constexpr double kSetupSeconds = 1.5;
constexpr int kMaxSetups = 40;

/// One blocking-or-polled NDJSON connection to the daemon.
class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket(): " + errno_text());
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      const std::string why = errno_text();
      ::close(fd_);
      throw std::runtime_error("connect(): " + why);
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  /// Blocking send of a whole framed request.
  void send_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send(): " + errno_text());
      off += static_cast<std::size_t>(n);
    }
  }

  /// Blocking read of the next response line (without its newline).
  std::string read_line() {
    std::string line;
    while (!next_line(line)) {
      if (!fill(0)) throw std::runtime_error("connection closed");
    }
    return line;
  }

  /// Moves a complete buffered line into `line`; false when none is.
  bool next_line(std::string& line) {
    const std::size_t nl = in_.find('\n', in_off_);
    if (nl == std::string::npos) return false;
    line.assign(in_, in_off_, nl - in_off_);
    in_off_ = nl + 1;
    if (in_off_ == in_.size()) {
      in_.clear();
      in_off_ = 0;
    }
    return true;
  }

  /// One recv() into the buffer; false on end of stream or error.  With
  /// MSG_DONTWAIT, "nothing there yet" counts as success.
  bool fill(int flags) {
    char chunk[65536];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, flags);
      if (n > 0) {
        in_.append(chunk, static_cast<std::size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
  }

  // Polled (svc_open) sending: queued bytes go out as the socket accepts.
  std::string out;
  std::size_t out_off = 0;
  std::deque<std::size_t> outstanding;  ///< query indices awaiting answers
  bool alive = true;

  bool flush() {
    while (out_off < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + out_off, out.size() - out_off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      }
    }
    out.clear();
    out_off = 0;
    return true;
  }

 private:
  static std::string errno_text() { return std::strerror(errno); }

  int fd_ = -1;
  std::string in_;
  std::size_t in_off_ = 0;
};

/// The pooled task sets, their queries (framed, newline included) and the
/// in-process answers every response must equal.
struct Pool {
  std::vector<task::TaskSet> sets;
  std::vector<std::string> admit;
  std::vector<std::string> plan;
  std::vector<std::string> admit_expected;
  std::vector<std::string> plan_expected;
  std::vector<std::string> workloads;  ///< plan workload spec per set
  std::uint64_t digest = 0;            ///< of every expected answer
  std::size_t rejected = 0;            ///< sets the admission test rejects
};

/// Pooled set `i` of `count`.  Utilizations are stratified over
/// [0.6, 0.95) and [1.0, 1.1), the same spread for every seed.  The band
/// just below 1 is left out: the demand test's horizon grows as 1/(1 - U)
/// there, one such set costs as much as a hundred others, and the pool's
/// mean cost would move by a third with the seed.
task::TaskSet pool_set(std::uint64_t seed, std::size_t i, std::size_t count) {
  util::Rng rng(util::hash_u64(seed, 4, i));
  task::GeneratorConfig g;
  g.n_tasks = std::size_t{8} << (i % 3);
  const double u = 0.6 + 0.45 * (static_cast<double>(i) + rng.unit()) /
                             static_cast<double>(count);
  g.total_utilization = u < 0.95 ? u : u + 0.05;
  g.period_min = 0.01;
  g.period_max = 0.16;
  g.bcet_ratio = 0.1;
  g.grid_fraction = 0.5;
  g.allow_overload = true;
  g.max_task_utilization = 0.7;
  const task::TaskSet base = task::generate_task_set(g, rng);
  task::TaskSet ts("query");
  for (task::Task t : base) {
    t.deadline = std::max(t.wcet, t.period * (0.7 + 0.3 * rng.unit()));
    ts.add(std::move(t));
  }
  return ts;
}

std::string query(const task::TaskSet& ts, const std::string* workload) {
  std::string out;
  obs::JsonWriter j(out);
  j.begin_object().kv("op", workload != nullptr ? "plan" : "admit");
  j.key("tasks").begin_array();
  for (const auto& t : ts) {
    j.begin_object()
        .kv("name", t.name)
        .kv("period", t.period)
        .kv("wcet", t.wcet)
        .kv("deadline", t.deadline)
        .kv("bcet", t.bcet)
        .end_object();
  }
  j.end_array();
  if (workload != nullptr) {
    j.key("governors").begin_array().value("ccEDF").value("lpSEH").end_array();
    j.kv("processor", "ideal").kv("workload", *workload).kv("length",
                                                           kPlanLength);
  }
  j.end_object();
  out.push_back('\n');
  return out;
}

svc::QueryOptions plan_options(const std::string& workload) {
  svc::QueryOptions o;
  o.governors = {"ccEDF", "lpSEH"};
  o.processor = "ideal";
  o.workload = workload;
  o.length = kPlanLength;
  return o;
}

std::string unframed(const std::string& line) {
  return line.substr(0, line.size() - 1);
}

Pool make_pool(std::uint64_t seed, bool smoke, bool plans, Result& res) {
  Pool p;
  svc::ProtocolHandler handler;
  const std::size_t n = smoke ? 24 : kPoolSets;
  for (std::size_t i = 0; i < n; ++i) {
    p.sets.push_back(pool_set(seed, i, n));
    p.admit.push_back(query(p.sets.back(), nullptr));
    p.admit_expected.push_back(handler.handle(unframed(p.admit.back())));
    p.digest = util::hash_u64(
        p.digest, std::hash<std::string>{}(p.admit_expected.back()));
    if (plans) {
      const std::uint64_t model_seed = util::hash_u64(seed, 6, i) % 1000003;
      p.workloads.push_back("uniform:" + std::to_string(model_seed));
      p.plan.push_back(query(p.sets.back(), &p.workloads.back()));
      p.plan_expected.push_back(handler.handle(unframed(p.plan.back())));
      p.digest = util::hash_u64(
          p.digest, std::hash<std::string>{}(p.plan_expected.back()));
    }
  }
  for (const auto* answers : {&p.admit_expected, &p.plan_expected}) {
    for (const std::string& a : *answers) {
      if (a.rfind("{\"ok\":true", 0) != 0) res.fail("pooled query fails: " + a);
    }
  }
  for (const std::string& a : p.admit_expected) {
    p.rejected += a.find("\"admitted\":false") != std::string::npos ? 1 : 0;
  }
  return p;
}

/// One query of a run: a pooled set, asked to admit or to plan.
struct Query {
  std::uint32_t set = 0;
  bool plan = false;
  Clock::duration at{};  ///< svc_open: scheduled send time from the start
};

/// A service workload after set-up.
struct Setup {
  Pool pool;
  std::vector<Query> schedule;  ///< svc_open arrivals
  std::unique_ptr<svc::Daemon> daemon;
  std::vector<std::unique_ptr<Connection>> conns;

  [[nodiscard]] const std::string& line(const Query& q) const {
    return q.plan ? pool.plan[q.set] : pool.admit[q.set];
  }
  [[nodiscard]] const std::string& expected(const Query& q) const {
    return q.plan ? pool.plan_expected[q.set] : pool.admit_expected[q.set];
  }
};

Query draw_query(util::Rng& rng, std::size_t pool_size, bool mixed) {
  Query q;
  q.set = static_cast<std::uint32_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(pool_size) - 1));
  q.plan = mixed && rng.unit() < kPlanShare;
  return q;
}

/// Poisson arrivals over `seconds`, each a mixed query.
std::vector<Query> poisson_schedule(std::uint64_t seed, double rate,
                                    double seconds, std::size_t pool_size) {
  util::Rng rng(util::hash_u64(seed, 7));
  std::vector<Query> out;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.unit()) / rate;
    if (t >= seconds) break;
    Query q = draw_query(rng, pool_size, true);
    q.at = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(t));
    out.push_back(q);
  }
  return out;
}

Setup prepare(const RunConfig& cfg, Result& res) {
  const bool open = cfg.workload == "svc_open";
  Setup s;
  s.pool = make_pool(cfg.seed, cfg.smoke, open, res);
  if (open) {
    // The traced run only needs the generator's lateness under this load.
    const double seconds =
        cfg.trace ? std::min(cfg.seconds, kTracedOpenSeconds) : cfg.seconds;
    s.schedule = poisson_schedule(cfg.seed,
                                  cfg.smoke ? kOpenRate / 8.0 : kOpenRate,
                                  seconds, s.pool.sets.size());
  }
  svc::DaemonOptions o;
  o.port = 0;
  o.batch_threads = 1;  // no batch queries; keep the process small
  s.daemon = std::make_unique<svc::Daemon>(o);
  s.daemon->start();
  const std::size_t conns = open ? kOpenConnections : 1;
  for (std::size_t c = 0; c < conns; ++c) {
    s.conns.push_back(std::make_unique<Connection>(s.daemon->port()));
  }
  // Warm-up: every pooled query once, checked like the run.
  Connection& c = *s.conns.front();
  for (std::size_t i = 0; i < s.pool.sets.size(); ++i) {
    for (const bool plan : {false, true}) {
      if (plan && s.pool.plan.empty()) continue;
      const Query q{static_cast<std::uint32_t>(i), plan, {}};
      c.send_all(s.line(q));
      if (c.read_line() != s.expected(q)) {
        res.fail("warm-up answer differs for pooled set " + std::to_string(i));
      }
    }
  }
  return s;
}

/// Repeated set-ups, each timed, at least five and for at least
/// kSetupSeconds (a set-up takes 0.1 s to 0.5 s, and the median of a
/// dozen repeats is steadier than that of five); the last one is kept.
/// Each set-up runs every thread of the process on one CPU, the next CPU
/// each time, for the reasons given at run_closed().
Setup timed_setups(const RunConfig& cfg, Result& res,
                   std::vector<double>& setup_s) {
  Setup s;
  std::uint64_t digest = 0;
  const int min_setups = cfg.smoke ? 2 : 5;
  const double min_seconds = cfg.smoke ? 0.0 : kSetupSeconds;
  CpuRotation rotation(true);
  const auto begin = Clock::now();
  for (int k = 0; k < min_setups ||
                  (seconds_between(begin, Clock::now()) < min_seconds &&
                   k < kMaxSetups);
       ++k) {
    s = Setup{};  // stop the previous daemon before starting the next
    rotation.step();
    const auto t0 = Clock::now();
    s = prepare(cfg, res);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (k > 0 && s.pool.digest != digest) {
      res.fail("set-up " + std::to_string(k) + " is not reproducible");
    }
    digest = s.pool.digest;
  }
  return s;
}

/// Latency samples grouped by the window of the run they fall in.
using Windows = std::vector<std::vector<double>>;

/// The `across`-quantile over windows of each window's `within`-quantile.
/// Windows too small for the quantile are skipped; with none left, all
/// samples count as one window.
double window_quantile(const Windows& windows, double within, double across) {
  constexpr std::size_t kMinSamples = 100;
  std::vector<double> per_window;
  std::vector<double> all;
  for (const auto& w : windows) {
    all.insert(all.end(), w.begin(), w.end());
    if (w.size() >= kMinSamples) per_window.push_back(quantile(w, within));
  }
  return per_window.empty() ? quantile(all, within)
                            : quantile(per_window, across);
}

/// The metrics both service workloads report; `latency` holds p50 and p90.
void common_metrics(Result& res, const Setup& s,
                    const std::vector<double>& setup_s, double throughput,
                    std::pair<double, double> latency, double cpu_us_per_op,
                    const Windows& lat_us) {
  res.metric("setup_s", median(setup_s), "s");
  res.metric("throughput", throughput, "1/s");
  res.metric("latency_p50_us", latency.first, "us");
  res.metric("latency_p90_us", latency.second, "us");
  std::vector<double> all;
  for (const auto& w : lat_us) all.insert(all.end(), w.begin(), w.end());
  res.detail.emplace_back("cpu_us_per_op", cpu_us_per_op);
  res.detail.emplace_back("setups", static_cast<double>(setup_s.size()));
  res.detail.emplace_back("queries", static_cast<double>(all.size()));
  res.detail.emplace_back("run_p50_us", quantile(all, 0.50));
  res.detail.emplace_back("run_p90_us", quantile(all, 0.90));
  res.detail.emplace_back("run_p99_us", quantile(all, 0.99));
  res.detail.emplace_back("peak_rss_mb", peak_rss_mb());
  res.detail.emplace_back("pool_rejected_share",
                          static_cast<double>(s.pool.rejected) /
                              static_cast<double>(s.pool.sets.size()));
  res.exact.emplace_back("expected_digest", std::to_string(s.pool.digest));
}

/// One connection, one query at a time, in windows of kWindowSeconds.
/// Each window runs every thread of the process on one CPU, the next CPU
/// each window, so a round trip is the service's own work and two context
/// switches rather than a cross-CPU wake-up whose cost the hypervisor sets
/// (rotation took the spread of p50 across seeds from 0.13 to 0.03), and
/// the run samples every core.  A window then runs in one of two states:
/// fast, while the other tenants sharing that core leave it alone, or
/// about 1.6 times slower.  How many windows are fast moves with the
/// neighbours' load, from none in some runs to half in others, so any
/// figure read near that share jumps from run to run.  Every figure is
/// therefore read at the window that kSlowWindow of the windows beat:
/// the cost of a query on the host in its usual, busy state.
Result run_closed(const RunConfig& cfg) {
  constexpr double kWindowSeconds = 0.1;
  constexpr double kSlowWindow = 0.9;
  Result res;
  res.workload = cfg.workload;
  std::vector<double> setup_s;
  Setup s = timed_setups(cfg, res, setup_s);
  Connection& c = *s.conns.front();
  util::Rng rng(util::hash_u64(cfg.seed, 5));
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::round(cfg.seconds / kWindowSeconds)));
  std::vector<double> window_qps;
  std::vector<double> window_cpu_us;
  Windows lat_us(windows);
  CpuRotation rotation(true);
  try {
    for (auto& window : lat_us) {
      rotation.step();
      window.reserve(1 << 12);
      const double cpu0 = cpu_seconds();
      const auto w0 = Clock::now();
      while (seconds_between(w0, Clock::now()) < kWindowSeconds) {
        const Query q = draw_query(rng, s.pool.sets.size(), false);
        ++res.attempted;
        const auto t0 = Clock::now();
        c.send_all(s.line(q));
        const std::string resp = c.read_line();
        window.push_back(ns_between(t0, Clock::now()) / 1e3);
        if (resp != s.expected(q)) res.fail("answer differs: " + resp);
      }
      const auto n = static_cast<double>(window.size());
      window_qps.push_back(n / seconds_between(w0, Clock::now()));
      window_cpu_us.push_back(per((cpu_seconds() - cpu0) * 1e6, n));
    }
  } catch (const std::exception& e) {
    res.fail(std::string("connection failed: ") + e.what());
  }
  common_metrics(res, s, setup_s, quantile(window_qps, 1.0 - kSlowWindow),
                 {window_quantile(lat_us, 0.5, kSlowWindow),
                  window_quantile(lat_us, 0.9, kSlowWindow)},
                 quantile(window_cpu_us, kSlowWindow), lat_us);
  res.detail.emplace_back("fast_window.throughput",
                          quantile(window_qps, kSlowWindow));
  res.detail.emplace_back("fast_window.latency_p50_us",
                          window_quantile(lat_us, 0.5, 1.0 - kSlowWindow));
  res.detail.emplace_back("fast_window.latency_p90_us",
                          window_quantile(lat_us, 0.9, 1.0 - kSlowWindow));
  return res;
}

/// What one open-loop run over Setup::schedule observed.
struct OpenLoop {
  Windows lat_us;  ///< by kOpenWindowSeconds window of the scheduled send
  std::vector<double> admit_us, plan_us;
  std::vector<double> late_us;  ///< how late the generator sent each query
  std::vector<double> window_cpu_us;  ///< process CPU per answered query
  std::size_t done = 0;
  double seconds = 0.0;  ///< from the first due send to the last answer
};

/// One generator thread polls every connection, sends each query when it
/// is due and times it from that moment; unanswered queries count as
/// failures.
OpenLoop open_loop(Setup& s, Result& res) {
  // The default 50 us timer slack would let every ppoll() wake late.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const std::vector<Query>& schedule = s.schedule;
  const std::size_t n = schedule.size();
  const auto window_of = [](const Query& q) {
    return static_cast<std::size_t>(
        std::chrono::duration<double>(q.at).count() / kOpenWindowSeconds);
  };
  OpenLoop out;
  out.lat_us.resize(n == 0 ? 1 : window_of(schedule.back()) + 1);
  out.late_us.reserve(n);
  std::vector<pollfd> fds(s.conns.size());
  std::size_t next = 0;
  std::string line;
  const auto drain = std::chrono::seconds(5);
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kOpenWindowSeconds));
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  auto last_rx = start;
  double window_cpu0 = cpu0;
  std::size_t window_done0 = 0;
  auto window_end = start + window;
  while (out.done < n) {
    auto now = Clock::now();
    for (; next < n && start + schedule[next].at <= now; ++next) {
      Connection& c = *s.conns[next % s.conns.size()];
      c.out += s.line(schedule[next]);
      c.outstanding.push_back(next);
      out.late_us.push_back(ns_between(start + schedule[next].at, now) / 1e3);
    }
    for (auto& c : s.conns) {
      if (c->alive && !c->flush()) c->alive = false;
    }
    const auto last_due = n == 0 ? start : start + schedule[n - 1].at;
    if (next == n && now > last_due + drain) break;
    const auto wake = next < n ? start + schedule[next].at
                               : now + std::chrono::milliseconds(1);
    const double wait_ns = std::max(0.0, ns_between(now, wake));
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait_ns / 1e9);
    ts.tv_nsec =
        static_cast<long>(wait_ns - static_cast<double>(ts.tv_sec) * 1e9);
    for (std::size_t k = 0; k < fds.size(); ++k) {
      fds[k].fd = s.conns[k]->alive ? s.conns[k]->fd() : -1;
      fds[k].events = static_cast<short>(
          POLLIN | (s.conns[k]->out.empty() ? 0 : POLLOUT));
      fds[k].revents = 0;
    }
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      res.fail(std::string("ppoll(): ") + std::strerror(errno));
      break;
    }
    now = Clock::now();
    for (std::size_t k = 0; k < fds.size(); ++k) {
      Connection& c = *s.conns[k];
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!c.fill(MSG_DONTWAIT)) c.alive = false;
      while (!c.outstanding.empty() && c.next_line(line)) {
        const std::size_t idx = c.outstanding.front();
        c.outstanding.pop_front();
        const Query& q = schedule[idx];
        const double us = ns_between(start + q.at, now) / 1e3;
        out.lat_us[window_of(q)].push_back(us);
        (q.plan ? out.plan_us : out.admit_us).push_back(us);
        if (line != s.expected(q)) res.fail("answer differs: " + line);
        ++out.done;
        last_rx = now;
      }
    }
    if (now >= window_end) {
      const double cpu = cpu_seconds();
      out.window_cpu_us.push_back(
          per((cpu - window_cpu0) * 1e6,
              static_cast<double>(out.done - window_done0)));
      window_cpu0 = cpu;
      window_done0 = out.done;
      window_end += window;
    }
  }
  if (out.window_cpu_us.empty()) {  // a run shorter than one window
    out.window_cpu_us.push_back(
        per((cpu_seconds() - cpu0) * 1e6, static_cast<double>(out.done)));
  }
  out.seconds = std::max(seconds_between(start, last_rx), 1e-9);
  res.attempted += static_cast<std::int64_t>(n);
  if (out.done < n) {
    res.failed += static_cast<std::int64_t>(n - out.done);
    res.errors.push_back(std::to_string(n - out.done) + " queries unanswered");
  }
  return out;
}

Result run_open(const RunConfig& cfg) {
  Result res;
  res.workload = cfg.workload;
  std::vector<double> setup_s;
  Setup s = timed_setups(cfg, res, setup_s);
  const OpenLoop o = open_loop(s, res);
  // The host stalls a vCPU for milliseconds now and then, and a stalled
  // generator or connection thread queues every query due meanwhile.
  // Latency is therefore read from the less-disturbed windows of arrivals,
  // at the window ranked at the 10th percentile, and CPU per query, which
  // stalls do not inflate, from the median window.
  common_metrics(res, s, setup_s, static_cast<double>(o.done) / o.seconds,
                 {window_quantile(o.lat_us, 0.5, 0.1),
                  window_quantile(o.lat_us, 0.9, 0.1)},
                 median(o.window_cpu_us), o.lat_us);
  res.detail.emplace_back("plan_queries", static_cast<double>(o.plan_us.size()));
  res.detail.emplace_back("admit_p50_us", quantile(o.admit_us, 0.50));
  res.detail.emplace_back("admit_p99_us", quantile(o.admit_us, 0.99));
  res.detail.emplace_back("plan_p50_us", quantile(o.plan_us, 0.50));
  res.detail.emplace_back("plan_p99_us", quantile(o.plan_us, 0.99));
  res.detail.emplace_back("gen_late_p50_us", quantile(o.late_us, 0.50));
  res.detail.emplace_back("gen_late_p99_us", quantile(o.late_us, 0.99));
  return res;
}

/// Per-query layer times of the traced run, in microseconds.
struct QueryLayers {
  double round_trip = 0.0;  ///< over TCP, calibrated
  double parse = 0.0;       ///< obs::parse_json
  double work = 0.0;        ///< svc::Session::admit or ::plan
  double handle = 0.0;      ///< svc::ProtocolHandler::handle
};

/// Sequential queries over one connection: each query's round trip is an
/// operation span, and a second pass replays its layers in process —
/// parse, admit or plan, and the whole handler.  The round trip minus the
/// handler is transport; the handler minus parse and admit is the codec
/// (decoding fields, validation, encoding).  svc_open then runs its
/// generator for a few seconds to see how late it sends at this load.
Result run_traced(const RunConfig& cfg) {
  Result res;
  res.workload = cfg.workload;
  Setup s = prepare(cfg, res);
  util::Rng rng(util::hash_u64(cfg.seed, 8));
  std::vector<Query> queries;
  const std::size_t count = cfg.smoke ? 100 : kTracedQueries;
  for (std::size_t k = 0; k < count; ++k) {
    queries.push_back(
        draw_query(rng, s.pool.sets.size(), !s.pool.plan.empty()));
  }
  std::vector<QueryLayers> layers(queries.size());
  Connection& c = *s.conns.front();
  Tracer tracer;
  tracer.set_calibration(calibrate(kCalibrationCalls));
  double untraced_ns = 0.0;
  try {
    // Each query goes out twice, back to back: once timed plainly, once as
    // an operation span, in alternating order (the second copy of a query
    // finds warmer caches), so neither a change in the host's speed nor
    // the order can pose as tracing overhead.
    for (std::size_t k = 0; k < queries.size(); ++k) {
      const Query& q = queries[k];
      for (const bool traced : {k % 2 == 0, k % 2 != 0}) {
        ++res.attempted;
        const auto t0 = traced ? tracer.begin_op(static_cast<std::int64_t>(k))
                               : Clock::now();
        c.send_all(s.line(q));
        const std::string resp = c.read_line();
        if (traced) {
          layers[k].round_trip = tracer.end_op(t0) / 1e3;
        } else {
          untraced_ns += ns_between(t0, Clock::now());
        }
        if (resp != s.expected(q)) res.fail("answer differs: " + resp);
      }
    }
  } catch (const std::exception& e) {
    res.fail(std::string("connection failed: ") + e.what());
  }
  svc::ProtocolHandler handler;
  svc::Session session;
  for (std::size_t k = 0; k < queries.size(); ++k) {
    const Query& q = queries[k];
    QueryLayers& l = layers[k];
    const std::string request = unframed(s.line(q));
    tracer.tag(static_cast<std::int64_t>(k));
    auto t = Clock::now();
    const obs::JsonValue parsed = obs::parse_json(request);
    l.parse = tracer.close(Layer::kParse, t) / 1e3;
    keep(parsed);
    t = Clock::now();
    if (q.plan) {
      const svc::PlanReport r = session.plan(
          s.pool.sets[q.set], plan_options(s.pool.workloads[q.set]));
      l.work = tracer.close(Layer::kPlan, t) / 1e3;
      keep(r);
    } else {
      const svc::AdmissionVerdict v = session.admit(s.pool.sets[q.set]);
      l.work = tracer.close(Layer::kAdmit, t) / 1e3;
      keep(v);
    }
    t = Clock::now();
    const std::string answer = handler.handle(request);
    l.handle = tracer.close(Layer::kHandle, t) / 1e3;
    if (answer != s.expected(q)) res.fail("in-process answer differs");
  }

  // Codec and transport are remainders, clamped at 0.
  double parse = 0.0, admit = 0.0, plan = 0.0, codec = 0.0, transport = 0.0;
  std::vector<double> parse_us, admit_us, handle_us, codec_us, transport_us,
      plan_us, plan_handle_us;
  for (std::size_t k = 0; k < queries.size(); ++k) {
    const QueryLayers& l = layers[k];
    const double rest = std::max(0.0, l.handle - l.parse - l.work);
    const double wire = std::max(0.0, l.round_trip - l.handle);
    parse += l.parse;
    codec += rest;
    transport += wire;
    parse_us.push_back(l.parse);
    if (queries[k].plan) {
      plan += l.work;
      plan_us.push_back(l.work);
      plan_handle_us.push_back(l.handle);
    } else {
      admit += l.work;
      admit_us.push_back(l.work);
      handle_us.push_back(l.handle);
      codec_us.push_back(rest);
      transport_us.push_back(wire);
    }
  }
  const double op_us = tracer.op_ns() / 1e3;
  res.metric("obs.parse_share", parse / op_us, "fraction");
  res.metric("svc.admit_share", admit / op_us, "fraction");
  res.metric("svc.plan_share", plan / op_us, "fraction");
  res.metric("svc.codec_share", codec / op_us, "fraction");
  res.metric("svc.transport_share", transport / op_us, "fraction");
  const double ledger_ns = (parse + admit + plan + codec + transport) * 1e3;
  res.metric("bench.trace_overhead",
             tracer.raw_ns(Layer::kOp) / untraced_ns - 1.0, "fraction");
  res.metric("bench.ledger_residual", std::fabs(ledger_ns / untraced_ns - 1.0),
             "fraction");
  res.metric("bench.call_overhead_ns", tracer.calibration().call_ns, "ns");
  res.metric("bench.op_us", op_us / static_cast<double>(queries.size()), "us");
  res.detail.emplace_back("obs.parse_us_p50", median(parse_us));
  res.detail.emplace_back("svc.admit_us_p50", median(admit_us));
  res.detail.emplace_back("svc.handle_us_p50", median(handle_us));
  res.detail.emplace_back("svc.codec_us_p50", median(codec_us));
  res.detail.emplace_back("svc.transport_us_p50", median(transport_us));
  res.detail.emplace_back("svc.plan_us_p50", median(plan_us));
  res.detail.emplace_back("svc.plan_handle_us_p50", median(plan_handle_us));
  if (!s.schedule.empty()) {
    const OpenLoop o = open_loop(s, res);
    const auto late = std::count_if(o.late_us.begin(), o.late_us.end(),
                                    [](double us) { return us > kLateUs; });
    res.metric("bench.gen_late_share",
               per(static_cast<double>(late),
                   static_cast<double>(o.late_us.size())),
               "fraction");
    res.detail.emplace_back("bench.gen_late_us_p99", quantile(o.late_us, 0.99));
  }
  tracer.write_chrome(cfg.out_dir + "/" + cfg.workload + ".trace.json");
  return res;
}

}  // namespace

bool is_svc_workload(const std::string& name) {
  return name == "svc_closed" || name == "svc_open";
}

Result run_svc_workload(const RunConfig& cfg) {
  if (cfg.trace) return run_traced(cfg);
  return cfg.workload == "svc_open" ? run_open(cfg) : run_closed(cfg);
}

}  // namespace dvs::bench
