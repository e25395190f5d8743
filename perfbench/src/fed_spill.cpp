// fed_spill: configs/federation.ini scaled to 1 000 000 tasks, built
// with fed::Federation directly so each node's event count can be read
// after run(). No GA runs here: the time goes to events, MM batch
// heuristics, routing and about a million migrations.
//
// Untraced: fresh federations are built (set-up: workload generation,
// routing and node construction) and run until the time budget is
// spent, after one untimed warm-up run. tasks_per_s = tasks per wall
// second of the median run; latency_p50_ms = that median run's wall, the
// time a user waits for one federation simulation. (MM decides a batch of
// about one task in well under a microsecond here, so its per-call
// percentiles mostly time the clock; they are per-layer metrics.)
//
// Traced: after an untimed warm-up run, alternating untraced and traced
// runs (tracing overhead; each traced run's simulated results must equal
// the untraced run's); the last traced run gives the per-layer metrics,
// with per-node event counts.

#include <memory>
#include <sstream>

#include "common.hpp"
#include "exp/registry.hpp"
#include "fed/federation.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "util/config.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace gs = gasched;

namespace {

// Untraced/traced pairs of runs for the tracing overhead. The order flips
// every pair and the last run must be a traced one.
constexpr std::size_t kOverheadPairs = 3;
static_assert(kOverheadPairs % 2 == 1);

struct Run {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  gs::fed::FederationResult result;
};

void check_run(const gs::fed::FederationConfig& cfg, const Run& run,
               Outcome& out) {
  const std::size_t count = cfg.workload.count;
  const auto& r = run.result;
  out.attempted += count;
  out.failed += count - std::min(count, r.tasks_completed);
  out.check(r.tasks_completed == count, "fed: not every task completed");
  std::size_t completed = 0, routed = 0, in = 0, outgoing = 0;
  for (const auto& c : r.clusters) {
    completed += c.sim.tasks_completed;
    routed += c.tasks_routed;
    in += c.migrated_in;
    outgoing += c.migrated_out;
    const double eff = c.sim.efficiency();
    out.check(eff >= 0.0 && eff <= 1.0,
              "fed: " + c.name + " efficiency outside [0,1]");
    out.check(c.sim.makespan <= r.makespan,
              "fed: " + c.name + " finished after the federation");
    for (const auto& p : c.sim.per_proc) {
      if (p.busy_time > c.sim.makespan) {
        out.check(false, "fed: " + c.name + " processor busy past makespan");
        break;
      }
    }
  }
  out.check(completed == count, "fed: cluster completions do not add up");
  out.check(routed == count, "fed: routed tasks do not add up");
  out.check(in == r.migrations && outgoing == r.migrations,
            "fed: migrations in/out do not match");
}

Run run_once(const gs::fed::FederationConfig& cfg, Outcome& out) {
  Run run;
  const std::uint64_t t0 = trace::now_ns();
  std::unique_ptr<gs::fed::Federation> fed;
  {
    trace::Span span("fed.setup");
    fed = std::make_unique<gs::fed::Federation>(cfg, 0);
  }
  const std::uint64_t t1 = trace::now_ns();
  {
    trace::Span span("fed.run");
    run.result = fed->run();
  }
  const std::uint64_t t2 = trace::now_ns();
  for (std::size_t i = 0; i < fed->size(); ++i) {
    run.events += fed->node(i).engine().events_processed();
  }
  run.setup_s = seconds_between(t0, t1);
  run.wall_s = seconds_between(t1, t2);
  check_run(cfg, run, out);
  return run;
}

bool same_simulation(const gs::fed::FederationResult& a,
                     const gs::fed::FederationResult& b) {
  if (a.makespan != b.makespan || a.tasks_completed != b.tasks_completed ||
      a.migrations != b.migrations ||
      a.link_busy_seconds != b.link_busy_seconds ||
      a.mean_response_time != b.mean_response_time ||
      a.clusters.size() != b.clusters.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.clusters.size(); ++i) {
    if (a.clusters[i].sim.makespan != b.clusters[i].sim.makespan ||
        a.clusters[i].sim.scheduler_invocations !=
            b.clusters[i].sim.scheduler_invocations) {
      return false;
    }
  }
  return true;
}

void report_simulated(const gs::fed::FederationResult& r, Outcome& out) {
  out.set("sim.makespan_s", r.makespan);
  out.set("sim.efficiency", r.as_simulation_result().efficiency());
  out.set("sim.response_s", r.mean_response_time);
  std::ostringstream note;
  note.precision(10);
  note << "fed: makespan " << r.makespan << " sim_s, response "
       << r.mean_response_time << " sim_s, migrations " << r.migrations
       << ", link_busy " << r.link_busy_seconds << " sim_s";
  out.notes.push_back(note.str());
}

}  // namespace

Outcome run_fed_spill(const Options& o) {
  Outcome out;
  gs::fed::FederationConfig cfg = gs::fed::federation_from_config(
      gs::util::Config::load(o.config_dir / "fed_spill.ini"));
  cfg.seed = o.seed;
  cfg.replications = 1;
  auto& registry = gs::exp::SchedulerRegistry::instance();
  for (auto& c : cfg.clusters) {
    c.scheduler = registry.canonical_name(c.scheduler);
    register_timed({c.scheduler});
    c.scheduler = timed_name(c.scheduler);
  }

  if (!o.trace) {
    // One warm-up run first: the first federation faults in ~300 MB.
    Outcome warmup;
    run_once(cfg, warmup);
    out.errors = warmup.errors;
    // Peak memory of one federation; later runs reuse the freed heap.
    out.set("peak_rss_mb", peak_rss_mb());
    const std::uint64_t start = trace::now_ns();
    std::vector<Run> runs;
    do {
      runs.push_back(run_once(cfg, out));
    } while (seconds_between(start, trace::now_ns()) < o.seconds);
    std::vector<double> setups, walls;
    for (const Run& r : runs) {
      setups.push_back(r.setup_s);
      walls.push_back(r.wall_s);
      out.check(same_simulation(r.result, runs.front().result),
                "fed: two runs of one seed simulated differently");
    }
    out.set("setup_s", median(setups));
    out.set("tasks_per_s",
            static_cast<double>(cfg.workload.count) / median(walls));
    out.set("latency_p50_ms", 1e3 * median(walls));
    std::string all;
    for (const double w : walls) {
      all += ' ';
      all += std::to_string(w);
    }
    out.notes.push_back("fed: " + std::to_string(runs.size()) +
                        " runs, median wall_s " + std::to_string(median(walls)) +
                        " (runs:" + all + ")");
    report_simulated(runs.front().result, out);
    return out;
  }

  // The workload the federation generates internally for rep 0.
  out.set("workload.gen_s", repeat_median([&] {
    const std::uint64_t t0 = trace::now_ns();
    const auto dist = gs::exp::make_distribution(cfg.workload);
    gs::util::Rng rng = gs::util::Rng(cfg.seed).split(0);
    const auto wl = gs::workload::generate(*dist, cfg.workload.count, rng,
                                           gs::exp::make_arrival(cfg.workload));
    out.check(wl.tasks.size() == cfg.workload.count,
              "fed: generated the wrong task count");
    return seconds_between(t0, trace::now_ns());
  }));

  Probe::instance().reset({}, false);
  const Run warmup = run_once(cfg, out);
  // Untraced and traced runs, alternating which goes first so a drifting
  // host speed falls on both sides; the last run is a traced one.
  std::vector<double> overhead;
  Run traced;
  for (std::size_t i = 0; i < kOverheadPairs; ++i) {
    const bool traced_first = i % 2 == 1;
    Run plain;
    for (const bool on : {traced_first, !traced_first}) {
      Probe::instance().reset(on ? std::set<std::string>{"MM"}
                                 : std::set<std::string>{},
                              false);
      trace::set_enabled(on);
      {
        trace::Span root("fed.pass");
        trace::set_root(root.id());
        (on ? traced : plain) = run_once(cfg, out);
      }
      trace::set_enabled(false);
    }
    out.check(same_simulation(traced.result, plain.result) &&
                  same_simulation(plain.result, warmup.result),
              "fed: the traced run simulated differently from the untraced");
    overhead.push_back(traced.wall_s - plain.wall_s);
  }
  report_overhead(overhead, "federation run", out);
  out.set("trace.spans", static_cast<double>(trace::span_count()));
  trace::write_jsonl(o.out_dir / "spans.jsonl");

  const auto totals = Probe::instance().totals();
  double invoke_ns = 0.0;
  for (const auto& [name, t] : totals) {
    invoke_ns += static_cast<double>(t.invoke_ns);
    if (name == "MM") set_sched_metrics(name, t, out);
  }
  out.set("sched.heur.busy_s", 1e-9 * invoke_ns);
  out.set("sim.self_s", traced.wall_s - 1e-9 * invoke_ns);
  out.set("sim.events", static_cast<double>(traced.events));
  out.set("sim.events_per_s", static_cast<double>(traced.events) / traced.wall_s);
  out.set("fed.migrations", static_cast<double>(traced.result.migrations));
  out.set("fed.link_busy_s", traced.result.link_busy_seconds);
  report_simulated(traced.result, out);
  return out;
}

}  // namespace perfbench
