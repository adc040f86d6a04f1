// bench_slackdvs: the benchmark of record (see README.md here).
//
//   bench_slackdvs --workload NAME|all [--seed S] [--seconds S]
//                  [--trace [0|1]] [--out DIR] [--spec FILE]
//   bench_slackdvs --smoke [--out DIR] [--spec FILE]
//   bench_slackdvs --compare SET_A SET_B [--spec FILE]
//
// One workload runs in this process; `all` starts one child process per
// workload so that each reports its own peak RSS.  A run prints
// `<workload> <metric> <value> <unit>` lines, writes DIR/<workload>.json
// (DIR/<workload>.layers.json and DIR/<workload>.trace.json when traced)
// and ends its output with one JSON line: correct, attempted, failed,
// metrics.  Exit status: 0 when every check passed; 1 when a correctness
// check failed, a run emitted a metric or unit BENCHMARK.json does not
// declare, or left a declared one out; 2 on a usage error.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "report.hpp"

namespace dvs::bench {
namespace {

struct Options {
  RunConfig run;
  bool all = false;
  bool seconds_given = false;
  std::string spec = "BENCHMARK.json";
  std::vector<std::string> compare;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload NAME|all [--seed S] [--seconds S] [--trace [0|1]]"
               " [--out DIR] [--spec FILE]\n"
            << "       " << argv0 << " --smoke [--out DIR] [--spec FILE]\n"
            << "       " << argv0
            << " --compare SET_A SET_B [--spec FILE]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) {
      o.run.workload = argv[++i];
    } else if (a == "--seed" && has) {
      o.run.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has) {
      o.run.seconds = std::strtod(argv[++i], nullptr);
      o.seconds_given = true;
      if (!(o.run.seconds > 0.0)) usage(argv[0]);
    } else if (a == "--trace") {
      o.run.trace = true;
      if (has && (std::string(argv[i + 1]) == "0" ||
                  std::string(argv[i + 1]) == "1")) {
        o.run.trace = std::string(argv[++i]) == "1";
      }
    } else if (a == "--out" && has) {
      o.run.out_dir = argv[++i];
    } else if (a == "--spec" && has) {
      o.spec = argv[++i];
    } else if (a == "--smoke") {
      o.run.smoke = true;
    } else if (a == "--compare" && i + 2 < argc) {
      o.compare = {argv[i + 1], argv[i + 2]};
      i += 2;
    } else {
      usage(argv[0]);
    }
  }
  o.all = o.run.workload == "all";
  const int modes = (o.run.workload.empty() ? 0 : 1) + (o.run.smoke ? 1 : 0) +
                    (o.compare.empty() ? 0 : 1);
  if (modes != 1) usage(argv[0]);
  return o;
}

/// Runs one workload; adds the names of the metrics it measured to
/// `measured` when given.
int run_one(const Spec& spec, const RunConfig& cfg,
            std::set<std::string>* measured = nullptr) {
  Result res;
  try {
    std::filesystem::create_directories(cfg.out_dir);
    res = is_sim_workload(cfg.workload) ? run_sim_workload(cfg)
                                        : run_svc_workload(cfg);
    if (measured != nullptr) {
      for (const Metric& m : res.metrics) measured->insert(m.name);
    }
    if (cfg.trace) add_unreached_layers(spec, res);
    const std::string undeclared = check_declared(spec, res, cfg.trace);
    if (!undeclared.empty()) {
      std::cerr << "bench_slackdvs: " << cfg.workload << ": " << undeclared
                << "\n";
      return 1;
    }
    write_report(res, cfg,
                 cfg.out_dir + "/" + cfg.workload +
                     (cfg.trace ? ".layers.json" : ".json"));
  } catch (const std::exception& e) {
    std::cerr << "bench_slackdvs: " << cfg.workload << ": " << e.what()
              << "\n";
    return 1;
  }
  print_result(res, std::cout);
  std::cout << result_line(res) << std::endl;
  return res.correct() ? 0 : 1;
}

/// Runs each workload in its own child process; 1 if any failed.
int run_all(const Spec& spec, const Options& o) {
  int status = 0;
  for (const std::string& w : spec.workloads) {
    std::vector<std::string> args = {
        "bench_slackdvs",     "--workload", w,
        "--seed",             std::to_string(o.run.seed),
        "--seconds",          std::to_string(o.run.seconds),
        "--trace",            o.run.trace ? "1" : "0",
        "--out",              o.run.out_dir,
        "--spec",             o.spec};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::cout.flush();
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::cerr << "bench_slackdvs: fork() failed\n";
      return 1;
    }
    if (pid == 0) {
      ::execv("/proc/self/exe", argv.data());
      std::_Exit(127);
    }
    int wstatus = 0;
    pid_t waited = 0;
    do {
      waited = ::waitpid(pid, &wstatus, 0);
    } while (waited < 0 && errno == EINTR);
    if (waited < 0 || !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
      status = 1;
    }
  }
  return status;
}

/// Every workload at tiny sizes, untraced and traced, every check on;
/// every declared metric must be measured by at least one workload.
int run_smoke(const Spec& spec, const Options& o) {
  int failures = 0;
  std::set<std::string> measured;
  for (const std::string& w : spec.workloads) {
    if (!is_sim_workload(w) && !is_svc_workload(w)) {
      std::cerr << "bench_slackdvs: declared workload '" << w
                << "' has no implementation\n";
      ++failures;
      continue;
    }
    for (const bool trace : {false, true}) {
      RunConfig cfg = o.run;
      cfg.workload = w;
      cfg.trace = trace;
      cfg.seconds = o.seconds_given ? o.run.seconds : 0.3;
      if (run_one(spec, cfg, &measured) != 0) ++failures;
    }
  }
  for (const auto* list : {&spec.end_to_end, &spec.per_layer}) {
    for (const Declared& d : *list) {
      if (measured.count(d.name) == 0) {
        std::cerr << "bench_slackdvs: declared metric '" << d.name
                  << "' is measured by no workload\n";
        ++failures;
      }
    }
  }
  std::cout << "smoke: " << (failures == 0 ? "PASS" : "FAIL") << "\n";
  return failures == 0 ? 0 : 1;
}

int run(int argc, char** argv) {
  Options o = parse(argc, argv);
  Spec spec;
  try {
    spec = load_spec(o.spec);
  } catch (const std::exception& e) {
    std::cerr << "bench_slackdvs: " << e.what() << "\n";
    return 2;
  }
  if (!o.compare.empty()) {
    try {
      return compare_sets(spec, o.compare[0], o.compare[1], std::cout) == 0 ? 0
                                                                            : 1;
    } catch (const std::exception& e) {
      std::cerr << "bench_slackdvs: " << e.what() << "\n";
      return 2;
    }
  }
  if (!o.seconds_given) o.run.seconds = spec.run_seconds;
  if (o.run.smoke) return run_smoke(spec, o);
  if (o.all) return run_all(spec, o);
  bool declared = false;
  for (const std::string& w : spec.workloads) declared |= w == o.run.workload;
  if (!declared) {
    std::cerr << "bench_slackdvs: unknown workload '" << o.run.workload
              << "'\n";
    return 2;
  }
  return run_one(spec, o.run);
}

}  // namespace
}  // namespace dvs::bench

int main(int argc, char** argv) { return dvs::bench::run(argc, argv); }
