// Event-core perf probe: the ledger anchor behind the
// `perf_event_core` section of BENCH_eval.json.
//
// Measurements on the calendar-queue event core:
//
//   hold    the classic hold model (Vaucher & Duval): preload N events,
//           then H× {pop the minimum, push a successor at +Exp(1)} — the
//           steady-state access pattern of a running simulation. Reports
//           ops/sec and, critically, allocs_per_event: after preload the
//           arena recycles slots, so the hold phase must allocate
//           NOTHING (asserted by CI at 0.00).
//   flood   N pushes at t = 0 followed by a full drain — the paper's
//           all_at_start workloads, the calendar queue's degenerate case,
//           kept linear by the equal-timestamp tail-append fast path.
//   engine  an end-to-end sim::Engine run at cloud scale (default 1000
//           processors × 1,000,000 tasks under RR) reporting event
//           throughput and makespan — proof the rebuilt core carries the
//           federation-scale scenarios the fed/ layer composes.
//   fed     (with --fed-tasks N, run from the repository root) one
//           fed::Federation run of configs/federation.ini scaled to N
//           tasks: three MM clusters, threshold migration over a star.
//           Reports wall, events/s, migrations and heap allocations per
//           event of the run loop (the policies' BatchAssignment results
//           and std::deque chunk turnover).
//
// Plain binary (no Google Benchmark): it links the counting operator new
// of alloc_count.cpp, and emits one machine-readable JSON line.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "alloc_count.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "fed/federation.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

using namespace gasched;

struct Options {
  std::size_t events = 1'000'000;  ///< hold-model population / flood size
  std::size_t holds = 4'000'000;   ///< hold operations measured
  std::size_t tasks = 1'000'000;   ///< engine run workload
  std::size_t procs = 1000;        ///< engine run cluster size
  std::string scheduler = "RR";
  std::string label = "current";
  std::size_t fed_tasks = 0;  ///< federation row workload; 0 skips it
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    auto num = [&](std::size_t& out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perf_event_core: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      out = std::strtoul(argv[++i], nullptr, 10);
    };
    if (std::strcmp(argv[i], "--events") == 0) {
      num(o.events);
    } else if (std::strcmp(argv[i], "--holds") == 0) {
      num(o.holds);
    } else if (std::strcmp(argv[i], "--tasks") == 0) {
      num(o.tasks);
    } else if (std::strcmp(argv[i], "--procs") == 0) {
      num(o.procs);
    } else if (std::strcmp(argv[i], "--fed-tasks") == 0) {
      num(o.fed_tasks);
    } else if (std::strcmp(argv[i], "--scheduler") == 0 && i + 1 < argc) {
      o.scheduler = argv[++i];
    } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      o.label = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: perf_event_core [--events N] [--holds H] "
                   "[--tasks N] [--procs M] [--scheduler S] [--label L] "
                   "[--fed-tasks N]\n");
      std::exit(2);
    }
  }
  return o;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Hold model: (ops/sec, allocs per hold operation). The preload draws
/// from Exp(1) — the equilibrium residual of the hold increments — so
/// the queue starts in the stationary regime the holds maintain.
std::pair<double, double> run_hold(const Options& o) {
  sim::CalendarQueue<std::uint64_t> q;
  q.reserve(o.events);
  util::Rng rng(11);
  for (std::size_t i = 0; i < o.events; ++i) {
    q.push(rng.exponential(1.0), i);
  }
  // Warm up one hold round so lazily-grown internals settle before the
  // allocation window opens.
  for (std::size_t i = 0; i < 10'000; ++i) {
    const double t = q.top_time();
    q.pop();
    q.push(t + rng.exponential(1.0), i);
  }
  const unsigned long long a0 = bench::allocs_total();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < o.holds; ++i) {
    const double t = q.top_time();
    q.pop();
    q.push(t + rng.exponential(1.0), i);
  }
  const double wall = seconds_since(t0);
  const unsigned long long a1 = bench::allocs_total();
  return {static_cast<double>(o.holds) / wall,
          static_cast<double>(a1 - a0) / static_cast<double>(o.holds)};
}

/// Equal-timestamp flood: (pushes/sec, pops/sec).
std::pair<double, double> run_flood(const Options& o) {
  sim::CalendarQueue<std::uint64_t> q;
  q.reserve(o.events);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < o.events; ++i) q.push(0.0, i);
  const double push_wall = seconds_since(t0);
  const auto t1 = std::chrono::steady_clock::now();
  while (!q.empty()) q.pop();
  const double pop_wall = seconds_since(t1);
  return {static_cast<double>(o.events) / push_wall,
          static_cast<double>(o.events) / pop_wall};
}

struct FedRow {
  std::size_t completed = 0;
  std::size_t migrations = 0;
  double events = 0.0;
  double wall = 0.0;
  double allocs_per_event = 0.0;
};

/// One federation replication of configs/federation.ini (read relative
/// to the working directory: run from the repository root) at
/// `o.fed_tasks` tasks; the timed window, and the allocation count, is
/// Federation::run().
FedRow run_fed(const Options& o) {
  fed::FederationConfig cfg = fed::federation_from_config(
      util::Config::load("configs/federation.ini"));
  cfg.workload.count = o.fed_tasks;
  cfg.replications = 1;
  fed::Federation federation(cfg, 0);
  const unsigned long long a0 = bench::allocs_total();
  const auto t0 = std::chrono::steady_clock::now();
  const fed::FederationResult r = federation.run();
  FedRow row;
  row.wall = seconds_since(t0);
  const unsigned long long a1 = bench::allocs_total();
  for (std::size_t k = 0; k < federation.size(); ++k) {
    row.events += static_cast<double>(
        federation.node(k).engine().events_processed());
  }
  row.completed = r.tasks_completed;
  row.migrations = r.migrations;
  row.allocs_per_event = static_cast<double>(a1 - a0) / row.events;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  const auto [hold_ops_per_sec, allocs_per_event] = run_hold(o);
  const auto [flood_pushes_per_sec, flood_pops_per_sec] = run_flood(o);

  // End-to-end engine run at scale: the paper's all-at-start setting on a
  // cheap O(1)-per-task scheduler, so the event core (not the policy)
  // dominates.
  exp::Scenario s;
  s.name = "perf_event_core";
  s.cluster.num_processors = o.procs;
  s.cluster.comm.mean_cost = 1.0;
  s.workload.dist = "uniform";
  s.workload.param_a = 10.0;
  s.workload.param_b = 100.0;
  s.workload.count = o.tasks;
  s.seed = 20050404;
  const util::Rng base(s.seed);
  util::Rng workload_rng = base.split(0);
  util::Rng cluster_rng = base.split(1);
  util::Rng sim_rng = base.split(2);
  const auto dist = exp::make_distribution(s.workload);
  const workload::Workload wl =
      workload::generate(*dist, s.workload.count, workload_rng);
  const sim::Cluster cluster = sim::build_cluster(s.cluster, cluster_rng);
  const auto policy = exp::make_scheduler(o.scheduler);

  sim::Engine engine(cluster, wl, *policy, std::move(sim_rng));
  const auto t0 = std::chrono::steady_clock::now();
  const sim::SimulationResult r = engine.run();
  const double engine_wall = seconds_since(t0);
  const double events = static_cast<double>(engine.events_processed());

  FedRow f;
  if (o.fed_tasks > 0) {
    try {
      f = run_fed(o);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perf_event_core: %s\n", e.what());
      return 1;
    }
  }

  std::printf(
      "{\"label\":\"%s\",\"events\":%zu,\"holds\":%zu,"
      "\"hold_ops_per_sec\":%.1f,\"allocs_per_event\":%.2f,"
      "\"flood_pushes_per_sec\":%.1f,\"flood_pops_per_sec\":%.1f,"
      "\"engine\":{\"procs\":%zu,\"tasks\":%zu,\"scheduler\":\"%s\","
      "\"events_processed\":%.0f,\"wall_seconds\":%.3f,"
      "\"events_per_sec\":%.1f,\"tasks_per_sec\":%.1f,"
      "\"tasks_completed\":%zu,\"makespan\":%.3f}",
      o.label.c_str(), o.events, o.holds, hold_ops_per_sec, allocs_per_event,
      flood_pushes_per_sec, flood_pops_per_sec, o.procs, o.tasks,
      o.scheduler.c_str(), events, engine_wall, events / engine_wall,
      static_cast<double>(r.tasks_completed) / engine_wall,
      r.tasks_completed, r.makespan);
  if (o.fed_tasks > 0) {
    // Named heap_allocs_per_event so CI's hold-row gate on
    // "allocs_per_event":0.00 cannot match this row.
    std::printf(
        ",\"fed\":{\"tasks\":%zu,\"events_processed\":%.0f,"
        "\"wall_seconds\":%.3f,\"events_per_sec\":%.1f,"
        "\"tasks_per_sec\":%.1f,\"migrations\":%zu,"
        "\"heap_allocs_per_event\":%.3f,\"fed_tasks_completed\":%zu}",
        o.fed_tasks, f.events, f.wall, f.events / f.wall,
        static_cast<double>(f.completed) / f.wall, f.migrations,
        f.allocs_per_event, f.completed);
  }
  std::printf("}\n");
  return 0;
}
