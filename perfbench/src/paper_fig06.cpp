// paper_fig06: the Figure 6 grid of `figset run --only fig06 --full`
// (the paper's seven schedulers, 10 000 normal tasks, the 50-processor
// paper cluster) driven through exp::Sweep with CSV and JSONL sinks. The
// grid comes from the figset fig06 definition; only the replication
// count, the seed and the cell runner (timed forwarders plus checks) are
// the benchmark's.
//
// Untraced: set-up (declare the grid, realise every replication's
// inputs, open the sinks) is repeated for 0.7 s and its median reported;
// then whole sweep passes run until the time budget is spent.
// tasks_per_s = simulated tasks per wall second of the median pass;
// latency_p50_ms = PN's median per-batch decision time over every
// invocation. Peak RSS is taken after the first pass.
//
// Traced: alternating untraced and traced passes of the grid at one
// replication (tracing overhead; each pair must write the same CSV),
// one traced pass at full size, a replay of every captured PN/ZO
// invocation through the public GA/core API, and a `figset` fig06 run
// whose CSV must equal the traced pass's byte for byte.

#include <fstream>
#include <mutex>
#include <sstream>

#include "common.hpp"
#include "exp/figset.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "metrics/aggregate.hpp"
#include "metrics/sink.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace gs = gasched;

namespace {

// 8 × 200 = 1600 PN invocations (at least 1000 are wanted). Eight PN and
// eight ZO replications spread evenly over a 4-wide pool; with five, one
// thread runs two PN replications back to back and sets the pass wall.
constexpr std::size_t kReps = 8;
// Untraced/traced pairs of one-replication passes for the overhead.
constexpr std::size_t kOverheadPairs = 3;

const gs::exp::FigureDef& fig06() {
  return gs::exp::FigSet::instance().find("fig06");
}

/// `figset run --only fig06 --full` at `reps` replications and `seed`.
gs::exp::FigScale fig06_scale(std::uint64_t seed, std::size_t reps) {
  gs::exp::FigScale scale = fig06().scale(true);
  scale.reps = reps;
  scale.seed = seed;
  return scale;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Realises the workload and cluster of every replication of `sc` — the
/// inputs exp::run_one simulates; exp::bound_instance mirrors its RNG
/// streams. Returns the seconds it took.
double generate_inputs(const gs::exp::Scenario& sc) {
  trace::Span span("workload.generate");
  const std::uint64_t t0 = trace::now_ns();
  std::size_t tasks = 0;
  for (std::size_t rep = 0; rep < sc.replications; ++rep) {
    const auto inst = gs::exp::bound_instance(sc, rep);
    tasks += inst.task_sizes.size();
    if (inst.rates.size() != sc.cluster.num_processors) {
      throw std::runtime_error("fig06 set-up built the wrong cluster size");
    }
  }
  const double s = seconds_between(t0, trace::now_ns());
  if (tasks != sc.replications * sc.workload.count) {
    throw std::runtime_error("fig06 set-up generated the wrong task count");
  }
  return s;
}

/// One set-up of the grid, outside the measured passes (which set up each
/// replication inside their wall): declare it, realise its inputs, open
/// the two sinks. Returns the seconds it took.
double setup_once(const gs::exp::FigScale& scale,
                  const std::filesystem::path& dir) {
  trace::Span span("fig06.setup");
  const std::uint64_t t0 = trace::now_ns();
  const gs::exp::Sweep sweep = fig06().build(scale);
  generate_inputs(sweep.flatten().front().scenario);
  gs::metrics::CsvSink csv(dir / "setup.csv");
  gs::metrics::JsonlSink jsonl(dir / "setup.jsonl");
  const gs::metrics::SweepHeader header{"fig06", {"scheduler"}, {}};
  csv.begin(header);
  jsonl.begin(header);
  csv.end();
  jsonl.end();
  return seconds_between(t0, trace::now_ns());
}

struct Pass {
  double wall_s = 0.0;
  std::size_t tasks = 0;  ///< simulated tasks, over every replication
  std::string csv;
  gs::exp::SweepResult result;
  OpTotals sink;
};

/// One sweep of the grid. Every replication is checked as it finishes.
Pass run_pass(const gs::exp::FigScale& scale, const std::filesystem::path& dir,
              bool timed_sinks, Outcome& out) {
  Pass pass;
  std::mutex mu;
  gs::exp::Sweep sweep = fig06().build(scale);
  sweep.progress(false);
  sweep.runner([&](const gs::exp::SweepCell& cell, bool parallel) {
    const auto runs = gs::exp::run_replications(
        cell.scenario, timed_name(cell.scheduler), cell.params, parallel);
    std::lock_guard lk(mu);
    for (std::size_t rep = 0; rep < runs.size(); ++rep) {
      const auto& r = runs[rep];
      const std::string at = cell.scheduler + " rep " + std::to_string(rep);
      const bool complete = r.tasks_completed == cell.scenario.workload.count;
      out.check(complete, at + ": not every task completed");
      out.failed += complete ? 0 : 1;
      const double eff = r.efficiency();
      out.check(eff >= 0.0 && eff <= 1.0, at + ": efficiency outside [0,1]");
      for (const auto& p : r.per_proc) {
        if (p.busy_time > r.makespan) {
          out.check(false, at + ": processor busy longer than the makespan");
          break;
        }
      }
    }
    out.attempted += runs.size();
    pass.tasks += runs.size() * cell.scenario.workload.count;
    gs::exp::CellOutcome outcome;
    outcome.summary = gs::metrics::aggregate(cell.scheduler, runs);
    return outcome;
  });

  gs::metrics::CsvSink csv(dir / "fig06.csv");
  gs::metrics::JsonlSink jsonl(dir / "fig06.jsonl");
  TimedSink timed_csv(csv);
  TimedSink timed_jsonl(jsonl);
  if (timed_sinks) {
    sweep.add_sink(timed_csv).add_sink(timed_jsonl);
  } else {
    sweep.add_sink(csv).add_sink(jsonl);
  }

  const std::uint64_t t0 = trace::now_ns();
  pass.result = sweep.run();
  pass.wall_s = seconds_between(t0, trace::now_ns());
  pass.csv = slurp(dir / "fig06.csv");
  pass.sink.add(timed_csv.totals());
  pass.sink.add(timed_jsonl.totals());
  out.check(pass.result.failed == 0, "fig06: a sweep cell failed");
  out.failed += pass.result.failed * scale.reps;
  out.attempted += pass.result.failed * scale.reps;
  return pass;
}

/// One pass with tracing off, or fully on: spans, per-call latencies of
/// PN ZO MM, GA capture and timed sinks.
Pass run_traced_or_not(const gs::exp::FigScale& scale,
                       const std::filesystem::path& dir, bool traced,
                       Outcome& out) {
  if (traced) {
    Probe::instance().reset({"PN", "ZO", "MM"}, true);
  } else {
    Probe::instance().reset({}, false);
  }
  trace::set_enabled(traced);
  Pass pass;
  {
    trace::Span root("fig06.pass");
    trace::set_root(root.id());
    pass = run_pass(scale, dir, traced, out);
  }
  trace::set_enabled(false);
  return pass;
}

const gs::metrics::CellSummary* row_of(const Pass& pass,
                                       const std::string& scheduler) {
  for (const auto& row : pass.result.rows) {
    if (row.scheduler == scheduler && row.ok()) return &row.cell;
  }
  return nullptr;
}

void report_simulated(const Pass& pass, Outcome& out) {
  const auto* pn = row_of(pass, "PN");
  out.check(pn != nullptr, "fig06: no PN row");
  if (pn == nullptr) return;
  out.set("sim.makespan_s", pn->makespan.mean);
  out.set("sim.efficiency", pn->efficiency.mean);
  out.set("sim.response_s", pn->response.mean);
  std::ostringstream note;
  note.precision(10);
  note << "fig06 PN row: makespan_mean " << pn->makespan.mean
       << " sim_s, efficiency_mean " << pn->efficiency.mean
       << ", response_mean " << pn->response.mean << " sim_s";
  out.notes.push_back(note.str());
}

void report_sched_layers(const std::map<std::string, SchedTotals>& totals,
                         Outcome& out) {
  double heur_ns = 0.0, self_ns = 0.0;
  for (const auto& [name, t] : totals) {
    if (name != "PN" && name != "ZO") heur_ns += static_cast<double>(t.invoke_ns);
    self_ns += static_cast<double>(t.life_ns) - static_cast<double>(t.invoke_ns);
  }
  for (const std::string s : {"PN", "ZO", "MM"}) {
    const auto it = totals.find(s);
    if (it == totals.end()) continue;
    set_sched_metrics(s, it->second, out);
  }
  out.set("sched.heur.busy_s", 1e-9 * heur_ns);
  out.set("sim.self_s", 1e-9 * self_ns);
}

void report_replays(std::vector<Capture> captures, Outcome& out) {
  std::vector<ReplayTotals> per(captures.size());
  gs::util::global_pool().parallel_for(0, captures.size(), [&](std::size_t i) {
    trace::Span span("ga.replay");
    per[i] = replay(captures[i]);
  });
  for (const std::string s : {"PN", "ZO"}) {
    ReplayTotals t;
    const Capture* first = nullptr;
    for (std::size_t i = 0; i < captures.size(); ++i) {
      if (captures[i].scheduler != s) continue;
      t.add(per[i]);
      if (first == nullptr) first = &captures[i];
    }
    out.check(first != nullptr, "fig06: no " + s + " invocation captured");
    if (first == nullptr) continue;
    const auto secs = [](const OpTotals& op) {
      return 1e-9 * static_cast<double>(op.ns);
    };
    const std::string ga = "ga." + s, core = "core." + s;
    out.set(ga + ".select.calls", static_cast<double>(t.select.calls));
    out.set(ga + ".select.busy_s", secs(t.select));
    out.set(ga + ".crossover.calls", static_cast<double>(t.crossover.calls));
    out.set(ga + ".crossover.busy_s", secs(t.crossover));
    out.set(ga + ".mutate.calls", static_cast<double>(t.mutate.calls));
    out.set(ga + ".mutate.busy_s", secs(t.mutate));
    out.set(ga + ".engine.self_s",
            secs(t.run) - secs(t.select) - secs(t.crossover) -
                secs(t.mutate) - secs(t.rebalance) - secs(t.eval));
    out.set(ga + ".generations", static_cast<double>(t.generations));
    out.set(ga + ".replays", static_cast<double>(t.replays));
    out.set(ga + ".replay_match",
            static_cast<double>(t.matches) / static_cast<double>(t.replays));
    out.check(t.matches == t.replays,
              s + ": a replayed invocation chose another assignment");
    out.set(core + ".init.busy_s", secs(t.init));
    out.set(core + ".rebalance.calls", static_cast<double>(t.rebalance.calls));
    out.set(core + ".rebalance.busy_s", secs(t.rebalance));
    out.set(core + ".rebalance.accept_ratio",
            t.rebalance.calls ? static_cast<double>(t.accepted) /
                                    static_cast<double>(t.rebalance.calls)
                              : 0.0);
    out.set(core + ".eval.calls", static_cast<double>(t.eval.calls));
    out.set(core + ".eval.busy_s", secs(t.eval));

    // Steady-state allocations per generation, differenced over two GA
    // lengths as bench/perf_eval does, so per-run set-up cancels out.
    std::uint64_t a1 = 0, a2 = 0;
    const ReplayTotals r1 = replay(*first, 100, &a1);
    const ReplayTotals r2 = replay(*first, 200, &a2);
    out.set(ga + ".allocs_per_generation",
            (static_cast<double>(a2) - static_cast<double>(a1)) /
                static_cast<double>(r2.generations - r1.generations));
  }
}

}  // namespace

Outcome run_paper_fig06(const Options& o) {
  Outcome out;
  register_timed(gs::exp::all_schedulers());
  const gs::exp::FigScale scale = fig06_scale(o.seed, kReps);

  if (!o.trace) {
    out.set("setup_s",
            repeat_median([&] { return setup_once(scale, o.out_dir); }));
    Probe::instance().reset({"PN"}, false);
    const std::uint64_t start = trace::now_ns();
    std::vector<Pass> passes;
    do {
      passes.push_back(run_pass(scale, o.out_dir, false, out));
      // Peak memory of one pass; later passes reuse the freed heap.
      if (passes.size() == 1) out.set("peak_rss_mb", peak_rss_mb());
    } while (seconds_between(start, trace::now_ns()) < o.seconds);
    std::vector<double> walls;
    for (const Pass& p : passes) {
      walls.push_back(p.wall_s);
      out.check(p.csv == passes.front().csv,
                "fig06: two passes of one seed wrote different CSVs");
    }
    const double wall = median(walls);
    const auto totals = Probe::instance().totals();
    const auto pn = totals.find("PN");
    const std::vector<double> lat =
        pn == totals.end() ? std::vector<double>{} : pn->second.invoke_ms;
    out.check(lat.size() >= 1000 * passes.size(),
              "fig06: fewer than 1000 PN invocations per pass");
    out.set("tasks_per_s", static_cast<double>(passes.front().tasks) / wall);
    out.set("latency_p50_ms", quantile(lat, 0.50));
    std::string all;
    for (const double w : walls) {
      all += ' ';
      all += std::to_string(w);
    }
    out.notes.push_back("fig06: " + std::to_string(passes.size()) +
                        " passes, median wall_s " + std::to_string(wall) +
                        " (passes:" + all + ")" +
                        ", " + std::to_string(lat.size()) +
                        " PN invocation samples");
    report_simulated(passes.front(), out);
    return out;
  }

  const gs::exp::Scenario sc =
      fig06().build(scale).flatten().front().scenario;
  out.set("workload.gen_s", repeat_median([&] { return generate_inputs(sc); }));

  // Tracing overhead: untraced and traced passes of the grid at one
  // replication, alternating which goes first so a drifting host speed
  // falls on both sides.
  const gs::exp::FigScale one = fig06_scale(o.seed, 1);
  std::vector<double> overhead;
  for (std::size_t i = 0; i < kOverheadPairs; ++i) {
    const bool traced_first = i % 2 == 1;
    const Pass a = run_traced_or_not(one, o.out_dir, traced_first, out);
    const Pass b = run_traced_or_not(one, o.out_dir, !traced_first, out);
    out.check(a.csv == b.csv,
              "fig06: a traced pass wrote a different CSV than the untraced");
    overhead.push_back(traced_first ? a.wall_s - b.wall_s
                                    : b.wall_s - a.wall_s);
  }
  report_overhead(overhead, "pass of the grid at 1 replication", out);

  const Pass traced = run_traced_or_not(scale, o.out_dir, true, out);
  report_sched_layers(Probe::instance().totals(), out);
  out.set("metrics.sink.rows", static_cast<double>(traced.sink.calls));
  out.set("metrics.sink.busy_s", 1e-9 * static_cast<double>(traced.sink.ns));
  out.notes.push_back("fig06 traced: wall_s " + std::to_string(traced.wall_s));
  trace::set_enabled(true);
  {
    trace::Span root("fig06.replay");
    trace::set_root(root.id());
    report_replays(Probe::instance().take_captures(), out);
  }
  out.set("trace.spans", static_cast<double>(trace::span_count()));
  trace::write_jsonl(o.out_dir / "spans.jsonl");
  trace::set_enabled(false);
  report_simulated(traced, out);

  // `figset run --only fig06 --full` at this seed and replication count,
  // untraced and with the default cell runner, must write the same CSV.
  gs::exp::Sweep figset = fig06().build(scale);
  gs::metrics::CsvSink figset_csv(o.out_dir / "figset_fig06.csv");
  figset.add_sink(figset_csv).progress(false);
  figset.run();
  out.check(slurp(o.out_dir / "figset_fig06.csv") == traced.csv,
            "fig06: rows differ from figset run --only fig06 --full");
  return out;
}

}  // namespace perfbench
