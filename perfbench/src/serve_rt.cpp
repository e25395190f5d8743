// serve_rt: the live rt::Runtime in serve mode — 3 workers plus the
// master thread — with tiny tasks, so dispatch bounds throughput. Two
// open-loop windows alternate until the time budget is spent:
//
//   saturation     constant λ far above capacity, shedding on overload;
//                  its completion rate is tasks_per_s.
//   constant rate  constant λ fixed near half the saturation rate;
//                  its median sojourn time is latency_p50_ms.
//
// Set-up is constructing the runtime (threads + compute calibration),
// repeated for 0.7 s and reported as the median construction.
//
// Traced: pairs of windows run with tracing on and off in turn; the
// traced ones give the per-layer metrics, and the saturation windows of
// each pair give the tracing overhead.

#include <memory>

#include "alloc_count.hpp"
#include "common.hpp"
#include "rt/runtime.hpp"
#include "rt/serve_config.hpp"
#include "sched/heuristics.hpp"
#include "trace.hpp"
#include "util/config.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace gs = gasched;

namespace {

constexpr double kSatRate = 5e6;       // tasks/s, far above capacity
constexpr double kSatSeconds = 0.25;
constexpr double kConstRate = 4e5;     // tasks/s, ~half of saturation
constexpr double kConstSeconds = 0.25;
constexpr std::size_t kConstQueueCapacity = 65536;

struct Window {
  gs::rt::ServeResult r;
  std::uint64_t allocs = 0;
};

Window serve_window(gs::rt::Runtime& runtime, const gs::rt::ServeConfig& cfg,
                    const gs::workload::SizeDistribution& sizes,
                    const char* what, Outcome& out) {
  trace::Span span(what);
  Window w;
  const std::uint64_t a0 = allocs_total();
  w.r = runtime.serve(cfg, sizes);
  w.allocs = allocs_total() - a0;
  const std::string at = std::string("serve ") + what;
  out.check(w.r.offered == w.r.admitted + w.r.shed,
            at + ": offered != admitted + shed");
  out.check(w.r.completed == w.r.admitted, at + ": completed != admitted");
  out.check(w.r.completed > 0, at + ": nothing completed");
  return w;
}

/// `sat` and `steady` are the measured windows: every window of an
/// untraced run, the traced ones of a traced run. `plain_sat` holds a
/// traced run's untraced saturation windows, paired by index with `sat`.
struct Windows {
  std::vector<Window> sat, steady;
  std::vector<Window> plain_sat;
};

/// Alternates a saturation and a constant-rate window until `seconds`
/// are spent. With `tracing`, each round runs one such pair traced and
/// one untraced, alternating which goes first so a drifting host speed
/// falls on both sides.
Windows run_windows(gs::rt::Runtime& runtime, const gs::rt::ServeSetup& setup,
                    double seconds, bool tracing, Outcome& out) {
  Windows ws;
  const gs::workload::UniformSizes sizes(0.5, 1.5);  // nominal MFLOPs
  gs::rt::ServeConfig sat = setup.serve;
  sat.rate = kSatRate;
  sat.duration_s = kSatSeconds;
  gs::rt::ServeConfig steady = setup.serve;
  steady.rate = kConstRate;
  steady.duration_s = kConstSeconds;
  // Below capacity nothing should be shed; a deeper admission queue keeps
  // a host stall of a few ms (4096 slots last 10 ms at this rate) from
  // turning into shed arrivals. The stall still shows in the sojourn p99.
  steady.queue_capacity = kConstQueueCapacity;
  const auto run_pair = [&](bool traced) {
    trace::set_enabled(traced);
    Window s = serve_window(runtime, sat, sizes, "rt.saturation", out);
    Window c = serve_window(runtime, steady, sizes, "rt.constant_rate", out);
    trace::set_enabled(false);
    out.attempted += c.r.offered;
    out.failed += c.r.shed;
    if (tracing && !traced) {
      ws.plain_sat.push_back(std::move(s));
      return;
    }
    ws.sat.push_back(std::move(s));
    ws.steady.push_back(std::move(c));
  };
  const std::uint64_t start = trace::now_ns();
  std::size_t round = 0;
  do {
    if (!tracing) {
      run_pair(false);
      continue;
    }
    const bool traced_first = round++ % 2 == 1;
    run_pair(traced_first);
    run_pair(!traced_first);
  } while (seconds_between(start, trace::now_ns()) < seconds);
  return ws;
}

std::vector<double> each(const std::vector<Window>& ws,
                         double (*f)(const gs::rt::ServeResult&)) {
  std::vector<double> v;
  for (const Window& w : ws) v.push_back(f(w.r));
  return v;
}

}  // namespace

Outcome run_serve_rt(const Options& o) {
  Outcome out;
  gs::rt::ServeSetup setup = gs::rt::serve_setup_from_config(
      gs::util::Config::load(o.config_dir / "serve_rt.ini"));
  setup.runtime.seed = o.seed;

  double setup_s = 0.0;
  Windows ws;
  trace::set_enabled(o.trace);
  {
    trace::Span root("rt.pass");
    trace::set_root(root.id());
    std::unique_ptr<gs::rt::Runtime> runtime;
    setup_s = repeat_median([&] {
      runtime.reset();
      trace::Span span("rt.setup");
      const std::uint64_t t0 = trace::now_ns();
      runtime = std::make_unique<gs::rt::Runtime>(setup.runtime,
                                                  gs::sched::make_rr());
      return seconds_between(t0, trace::now_ns());
    });
    trace::set_enabled(false);
    ws = run_windows(*runtime, setup, o.seconds, o.trace, out);
  }

  const double sat_tps = median(each(ws.sat, [](const gs::rt::ServeResult& r) {
    return r.throughput_per_sec;
  }));
  // Window quantiles are histogram bucket bounds (6.25% steps): the
  // interquartile mean over windows of the p50 resolves finer than any one
  // window, and a window hit by a host stall does not set it; the p99
  // takes the median.
  const double p50 = interquartile_mean(
      each(ws.steady, [](const gs::rt::ServeResult& r) { return r.sojourn.p50; }));
  const double p99 = median(each(ws.steady, [](const gs::rt::ServeResult& r) {
    return r.sojourn.p99;
  }));
  std::uint64_t allocs = 0, completed = 0;
  for (const auto* group : {&ws.sat, &ws.steady}) {
    for (const Window& w : *group) {
      allocs += w.allocs;
      completed += w.r.completed;
    }
  }
  std::uint64_t samples = 0;
  for (const Window& w : ws.steady) samples += w.r.sojourn.count;
  out.notes.push_back(
      "serve: " + std::to_string(ws.sat.size()) + " saturation + " +
      std::to_string(ws.steady.size()) + " constant-rate windows" +
      (o.trace ? " traced, as many untraced" : "") + ", " +
      std::to_string(samples) + " sojourn samples; p50 " +
      std::to_string(1e6 * p50) +
      " us (interquartile mean of windows), p99 " +
      std::to_string(1e6 * p99) + " us (median of windows)");

  if (!o.trace) {
    out.set("setup_s", setup_s);
    out.set("tasks_per_s", sat_tps);
    out.set("latency_p50_ms", 1e3 * p50);
    out.set("peak_rss_mb", peak_rss_mb());
    return out;
  }

  out.set("rt.calibrate_s", setup_s);
  out.set("rt.sojourn_p50_us", 1e6 * p50);
  out.set("rt.sojourn_p99_us", 1e6 * p99);
  out.set("rt.sched_p50_us",
          1e6 * median(each(ws.steady, [](const gs::rt::ServeResult& r) {
            return r.sched_latency.p50;
          })));
  out.set("rt.sched_p99_us",
          1e6 * median(each(ws.steady, [](const gs::rt::ServeResult& r) {
            return r.sched_latency.p99;
          })));
  out.set("rt.queue_p50_us",
          1e6 * median(each(ws.steady, [](const gs::rt::ServeResult& r) {
            return r.queue_latency.p50;
          })));
  out.set("rt.queue_p99_us",
          1e6 * median(each(ws.steady, [](const gs::rt::ServeResult& r) {
            return r.queue_latency.p99;
          })));
  out.set("rt.worker_busy_frac",
          median(each(ws.sat, [](const gs::rt::ServeResult& r) {
            double busy = 0.0;
            for (const auto& w : r.per_worker) busy += w.busy_seconds;
            return busy / (static_cast<double>(r.per_worker.size()) *
                           r.duration_s);
          })));
  out.set("rt.shed_frac_sat",
          median(each(ws.sat, [](const gs::rt::ServeResult& r) {
            return static_cast<double>(r.shed) / static_cast<double>(r.offered);
          })));
  out.set("rt.allocs_per_dispatch",
          static_cast<double>(allocs) / static_cast<double>(completed));
  // A saturation window is open-loop and lasts a fixed time, so tracing
  // shows as lost throughput, not a longer window: the overhead of a pair
  // is the extra time the untraced window's completions take at the
  // traced window's rate.
  std::vector<double> overhead;
  for (std::size_t i = 0; i < ws.sat.size(); ++i) {
    const auto& t = ws.sat[i].r;
    const auto& u = ws.plain_sat[i].r;
    overhead.push_back(static_cast<double>(u.completed) *
                       (1.0 / t.throughput_per_sec - 1.0 / u.throughput_per_sec));
  }
  report_overhead(overhead, "saturation window", out);
  out.set("trace.spans", static_cast<double>(trace::span_count()));
  trace::write_jsonl(o.out_dir / "spans.jsonl");
  return out;
}

}  // namespace perfbench
