// Serving-runtime perf probe: the ledger anchor behind the
// `perf_runtime` section of BENCH_eval.json.
//
// Drives rt::Runtime::serve() — the lock-free SPSC dispatch plane —
// through a policy × arrival-regime matrix:
//
//   policies   rr, least_loaded, fastest   (immediate-mode RR / LL / EF)
//   regimes    constant λ, ramp (0 → λ over half the window), flash
//              crowd (10× λ over the middle fifth)
//
// Each cell reports p50/p99/p999 scheduling latency (arrival-due → ring
// push), queueing latency (ring push → execution start), sojourn p99,
// throughput, shed count — and allocs_per_dispatch, the proof that the
// steady-state dispatch path performs zero heap allocations (CI gates it
// at 0.00; the few setup allocations inside serve() amortise to < 0.005
// over thousands of dispatches). A saturation cell per policy (constant
// λ × 50, shedding) measures max sustainable throughput: completions per
// second when the arrival source always has work to offer.
//
// Plain binary (no Google Benchmark): it links the counting operator new
// of alloc_count.cpp, and emits one machine-readable JSON line.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "rt/runtime.hpp"
#include "sched/heuristics.hpp"
#include "workload/generator.hpp"

namespace {

using namespace gasched;

struct Options {
  double duration = 2.0;    ///< arrival window per cell (seconds)
  double rate = 20000.0;    ///< base λ (tasks/s), well under capacity
  std::size_t workers = 4;
  double work_scale = 0.002;  ///< 1-MFLOP nominal task ≈ 2000 real flops
  std::string label = "current";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    auto num = [&](double& out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perf_runtime: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      out = std::strtod(argv[++i], nullptr);
    };
    if (std::strcmp(argv[i], "--duration") == 0) {
      num(o.duration);
    } else if (std::strcmp(argv[i], "--rate") == 0) {
      num(o.rate);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      o.workers = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--work-scale") == 0) {
      num(o.work_scale);
    } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      o.label = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: perf_runtime [--duration S] [--rate L] "
                   "[--workers N] [--work-scale F] [--label L]\n");
      std::exit(2);
    }
  }
  return o;
}

/// One serve window with the allocation counter differenced around it.
struct Cell {
  rt::ServeResult result;
  double allocs_per_dispatch = 0.0;
};

Cell run_cell(rt::Runtime& runtime, const rt::ServeConfig& cfg,
              const workload::SizeDistribution& sizes) {
  Cell cell;
  const unsigned long long a0 = bench::allocs_total();
  cell.result = runtime.serve(cfg, sizes);
  const unsigned long long a1 = bench::allocs_total();
  cell.allocs_per_dispatch =
      cell.result.completed > 0
          ? static_cast<double>(a1 - a0) /
                static_cast<double>(cell.result.completed)
          : 0.0;
  return cell;
}

void print_cell(const char* policy, const char* arrival, const Cell& c,
                bool first) {
  const rt::ServeResult& r = c.result;
  std::printf(
      "%s{\"policy\":\"%s\",\"arrival\":\"%s\",\"offered\":%llu,"
      "\"admitted\":%llu,\"shed\":%llu,\"completed\":%llu,"
      "\"throughput_per_sec\":%.1f,"
      "\"sched_p50_us\":%.1f,\"sched_p99_us\":%.1f,\"sched_p999_us\":%.1f,"
      "\"queue_p50_us\":%.1f,\"queue_p99_us\":%.1f,\"queue_p999_us\":%.1f,"
      "\"sojourn_p99_us\":%.1f,\"allocs_per_dispatch\":%.2f}",
      first ? "" : ",", policy, arrival,
      static_cast<unsigned long long>(r.offered),
      static_cast<unsigned long long>(r.admitted),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.completed), r.throughput_per_sec,
      r.sched_latency.p50 * 1e6, r.sched_latency.p99 * 1e6,
      r.sched_latency.p999 * 1e6, r.queue_latency.p50 * 1e6,
      r.queue_latency.p99 * 1e6, r.queue_latency.p999 * 1e6,
      r.sojourn.p99 * 1e6, c.allocs_per_dispatch);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const workload::UniformSizes sizes(0.5, 1.5);  // nominal MFLOPs per task

  const char* kPolicies[] = {"rr", "least_loaded", "fastest"};
  const char* kRegimes[] = {"constant", "ramp", "flash"};

  std::printf(
      "{\"label\":\"%s\",\"workers\":%zu,\"duration\":%.2f,\"rate\":%.0f,"
      "\"work_scale\":%g,\"cells\":[",
      o.label.c_str(), o.workers, o.duration, o.rate, o.work_scale);

  std::vector<double> max_sustainable;
  bool first = true;
  for (const char* policy : kPolicies) {
    rt::RuntimeConfig rcfg;
    rcfg.worker_speeds.assign(o.workers, 1.0);
    rcfg.work_scale = o.work_scale;
    rcfg.seed = 42;
    // The batch-mode policy is unused in serve mode but must be non-null.
    rt::Runtime runtime(rcfg, sched::make_rr());

    for (const char* regime : kRegimes) {
      rt::ServeConfig scfg;
      scfg.duration_s = o.duration;
      scfg.rate = o.rate;
      scfg.policy = policy;
      scfg.arrival = regime;
      if (std::strcmp(regime, "ramp") == 0) {
        scfg.arrival_params.set("arrival_start_factor", 0.0);
        scfg.arrival_params.set("arrival_ramp", 0.5 * o.duration);
      } else if (std::strcmp(regime, "flash") == 0) {
        scfg.arrival_params.set("arrival_flash_mult", 10.0);
        scfg.arrival_params.set("arrival_flash_start", 0.4 * o.duration);
        scfg.arrival_params.set("arrival_flash_width", 0.2 * o.duration);
      }
      const Cell cell = run_cell(runtime, scfg, sizes);
      print_cell(policy, regime, cell, first);
      first = false;
    }

    // Saturation: constant arrivals far past capacity, shedding. The
    // completion rate under a permanently full admission queue is the
    // max sustainable throughput of this policy's dispatch path.
    rt::ServeConfig sat;
    sat.duration_s = o.duration;
    sat.rate = o.rate * 50.0;
    sat.policy = policy;
    const Cell cell = run_cell(runtime, sat, sizes);
    print_cell(policy, "saturation", cell, false);
    max_sustainable.push_back(cell.result.throughput_per_sec);
  }

  std::printf("],\"max_sustainable\":[");
  for (std::size_t i = 0; i < max_sustainable.size(); ++i) {
    std::printf("%s{\"policy\":\"%s\",\"throughput_per_sec\":%.1f}",
                i == 0 ? "" : ",", kPolicies[i], max_sustainable[i]);
  }
  std::printf("]}\n");
  return 0;
}
