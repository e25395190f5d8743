// gasched end-to-end benchmark driver.
//
//   gasched_perfbench --workload <paper_fig06|fed_spill|serve_rt>
//                     --seed N --seconds S --trace <0|1>
//                     --config-dir DIR --out-dir DIR
//                     [--git-sha SHA] [--source-id ID]
//
// Prints a provenance stanza, the workload's notes and every metric by
// name and unit, then — as the last line — one JSON object:
//   {"correct": …, "attempted": …, "failed": …, "metrics": {…}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (a layer a workload does not exercise reads 0). Exits 1
// when any correctness check failed, 2 on a usage error. The global pool
// runs kPoolWidth threads (fewer on a machine with fewer cores).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/numeric.hpp"
#include "probes.hpp"
#include "util/thread_pool.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

constexpr std::size_t kPoolWidth = 4;

struct Metric {
  std::string name;
  std::string unit;
};

const std::vector<Metric> kEndToEnd{
    {"setup_s", "s"},
    {"tasks_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

std::vector<Metric> per_layer_metrics() {
  std::vector<Metric> m;
  const auto add = [&](const std::string& name, const char* unit) {
    m.push_back({name, unit});
  };
  for (const char* s : {"PN", "ZO", "MM"}) {
    add(std::string("sched.") + s + ".calls", "count");
    add(std::string("sched.") + s + ".batch_mean", "tasks");
    add(std::string("sched.") + s + ".busy_s", "s");
    add(std::string("sched.") + s + ".invoke_p50_ms", "ms");
    add(std::string("sched.") + s + ".invoke_p99_ms", "ms");
  }
  add("sched.heur.busy_s", "s");
  add("sim.self_s", "s");
  add("sim.events", "count");
  add("sim.events_per_s", "1/s");
  add("sim.makespan_s", "sim_s");
  add("sim.efficiency", "ratio");
  add("sim.response_s", "sim_s");
  add("fed.migrations", "count");
  add("fed.link_busy_s", "sim_s");
  add("workload.gen_s", "s");
  for (const char* s : {"PN", "ZO"}) {
    const std::string ga = std::string("ga.") + s;
    for (const char* op : {"select", "crossover", "mutate"}) {
      add(ga + "." + op + ".calls", "count");
      add(ga + "." + op + ".busy_s", "s");
    }
    add(ga + ".engine.self_s", "s");
    add(ga + ".generations", "count");
    add(ga + ".allocs_per_generation", "count");
    add(ga + ".replays", "count");
    add(ga + ".replay_match", "ratio");
    const std::string core = std::string("core.") + s;
    add(core + ".init.busy_s", "s");
    add(core + ".rebalance.calls", "count");
    add(core + ".rebalance.busy_s", "s");
    add(core + ".rebalance.accept_ratio", "ratio");
    add(core + ".eval.calls", "count");
    add(core + ".eval.busy_s", "s");
  }
  add("metrics.sink.rows", "count");
  add("metrics.sink.busy_s", "s");
  add("rt.calibrate_s", "s");
  add("rt.sched_p50_us", "us");
  add("rt.sched_p99_us", "us");
  add("rt.queue_p50_us", "us");
  add("rt.queue_p99_us", "us");
  add("rt.sojourn_p50_us", "us");
  add("rt.sojourn_p99_us", "us");
  add("rt.worker_busy_frac", "ratio");
  add("rt.shed_frac_sat", "ratio");
  add("rt.allocs_per_dispatch", "count");
  add("trace.overhead_s", "s");
  add("trace.overhead_spread_s", "s");
  add("trace.spans", "count");
  return m;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gasched_perfbench: %s\nusage: gasched_perfbench --workload "
               "<paper_fig06|fed_spill|serve_rt> --seed N --seconds S "
               "--trace <0|1> --config-dir DIR --out-dir DIR "
               "[--git-sha SHA] [--source-id ID]\n",
               why);
  std::exit(2);
}

struct Args {
  Options opts;
  std::string git_sha = "unknown";
  std::string source_id = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.opts.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.opts.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      a.opts.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && a.opts.seconds > 0.0;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.opts.trace = v == "1";
      have_trace = true;
    } else if (flag == "--config-dir") {
      a.opts.config_dir = v;
    } else if (flag == "--out-dir") {
      a.opts.out_dir = v;
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else if (flag == "--source-id") {
      a.source_id = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      a.opts.config_dir.empty() || a.opts.out_dir.empty()) {
    usage("--workload, --seed, --seconds, --trace, --config-dir and "
          "--out-dir are required");
  }
  return a;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Options& o = args.opts;

  // Pin the pool width before anything touches the global pool.
  const std::size_t nproc =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  const std::size_t width = std::min(kPoolWidth, nproc);
  setenv("GASCHED_THREADS", std::to_string(width).c_str(), 1);

  Outcome out;
  try {
    std::filesystem::create_directories(o.out_dir);
    if (o.workload == "paper_fig06") {
      out = perfbench::run_paper_fig06(o);
    } else if (o.workload == "fed_spill") {
      out = perfbench::run_fed_spill(o);
    } else if (o.workload == "serve_rt") {
      out = perfbench::run_serve_rt(o);
    } else {
      usage(("unknown workload " + o.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gasched_perfbench: %s\n", e.what());
    return 1;
  }
  out.check(!perfbench::Probe::instance().incomplete(),
            "a scheduler probe lost its totals");

  std::printf(
      "provenance: {\"git_sha\": \"%s\", \"source_id\": \"%s\", "
      "\"compiler\": \"g++ %s\", \"build_type\": \"%s\", \"pool_width\": "
      "%zu, \"nproc\": %zu, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"numeric_mode\": \"%s\"}\n",
      args.git_sha.c_str(), args.source_id.c_str(), __VERSION__,
      PERFBENCH_BUILD_TYPE, gasched::util::global_pool().size(), nproc,
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      json_number(o.seconds).c_str(), o.trace ? 1 : 0,
      gasched::core::numeric_mode_name(gasched::core::default_numeric_mode()));
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());

  const std::vector<Metric> metrics =
      o.trace ? per_layer_metrics() : kEndToEnd;
  std::string json = "{";
  for (const Metric& m : metrics) {
    const auto it = out.metrics.find(m.name);
    if (!o.trace && it == out.metrics.end()) {
      out.errors.push_back("metric not measured: " + m.name);
    }
    const double v = it == out.metrics.end() ? 0.0 : it->second;
    std::printf("%-36s %20.6f %s\n", m.name.c_str(), v, m.unit.c_str());
    if (json.size() > 1) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + json_number(v) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}";
  const double fail_frac =
      out.attempted ? static_cast<double>(out.failed) / out.attempted : 0.0;
  std::printf("fail_frac %s (%llu of %llu attempted)\n",
              json_number(fail_frac).c_str(),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& e : out.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = out.errors.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
