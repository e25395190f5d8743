#include "probes.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "alloc_count.hpp"
#include "core/encoding.hpp"
#include "core/fitness.hpp"
#include "core/init.hpp"
#include "exp/registry.hpp"
#include "ga/engine.hpp"
#include "trace.hpp"

namespace perfbench {

namespace gs = gasched;

namespace {

class TimedPolicy final : public gs::sim::SchedulingPolicy {
 public:
  TimedPolicy(std::unique_ptr<gs::sim::SchedulingPolicy> inner,
              std::string scheduler)
      : inner_(std::move(inner)),
        scheduler_(std::move(scheduler)),
        ga_(dynamic_cast<const gs::core::GeneticBatchScheduler*>(
            inner_.get())),
        keep_latency_(Probe::instance().keeps_latency(scheduler_)),
        capture_(ga_ != nullptr && Probe::instance().capturing()),
        born_ns_(trace::now_ns()),
        span_("replication") {}

  ~TimedPolicy() override {
    totals_.life_ns = trace::now_ns() - born_ns_;
    try {
      Probe::instance().fold(scheduler_, std::move(totals_),
                             std::move(captures_));
    } catch (...) {
      Probe::instance().mark_incomplete();
    }
  }

  gs::sim::BatchAssignment invoke(const gs::sim::SystemView& view,
                                  std::deque<gs::workload::Task>& queue,
                                  gs::util::Rng& rng) override {
    if (capture_) begin_capture(view, queue, rng);
    std::optional<trace::Span> span;
    if (ga_ != nullptr && trace::enabled()) span.emplace("sched.invoke.ga");
    const std::uint64_t t0 = trace::now_ns();
    gs::sim::BatchAssignment out = inner_->invoke(view, queue, rng);
    const std::uint64_t dt = trace::now_ns() - t0;
    ++totals_.calls;
    totals_.tasks += out.total();
    totals_.invoke_ns += dt;
    if (keep_latency_) totals_.invoke_ms.push_back(1e-6 * static_cast<double>(dt));
    if (capture_) {
      Capture& c = captures_.back();
      const std::size_t batch = out.total();
      c.ids.resize(std::min(batch, c.ids.size()));
      c.sizes.resize(c.ids.size());
      c.live = out;
    }
    return out;
  }

  std::string name() const override { return inner_->name(); }

 private:
  void begin_capture(const gs::sim::SystemView& view,
                     const std::deque<gs::workload::Task>& queue,
                     const gs::util::Rng& rng) {
    const gs::core::GeneticSchedulerConfig& cfg = ga_->config();
    const std::size_t cap =
        std::min(queue.size(), std::max(cfg.max_batch, cfg.fixed_batch));
    Capture c{scheduler_, cfg, view, {}, {}, rng, {}};
    c.ids.reserve(cap);
    c.sizes.reserve(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      c.ids.push_back(queue[i].id);
      c.sizes.push_back(queue[i].size_mflops);
    }
    captures_.push_back(std::move(c));
  }

  std::unique_ptr<gs::sim::SchedulingPolicy> inner_;
  std::string scheduler_;
  const gs::core::GeneticBatchScheduler* ga_;
  bool keep_latency_;
  bool capture_;
  std::uint64_t born_ns_;
  trace::Span span_;
  SchedTotals totals_;
  std::vector<Capture> captures_;
};

// --- timed GA operators and problem (replay only) ---------------------------

class Stopwatch {
 public:
  explicit Stopwatch(OpTotals& t) : t_(t), start_(trace::now_ns()) {}
  ~Stopwatch() {
    ++t_.calls;
    t_.ns += trace::now_ns() - start_;
  }

 private:
  OpTotals& t_;
  std::uint64_t start_;
};

class TimedSelection final : public gs::ga::SelectionOp {
 public:
  TimedSelection(const gs::ga::SelectionOp& inner, OpTotals& t)
      : inner_(inner), t_(t) {}
  std::vector<std::size_t> select(std::span<const double> fitness,
                                  std::size_t count,
                                  gs::util::Rng& rng) const override {
    Stopwatch w(t_);
    return inner_.select(fitness, count, rng);
  }
  void select_into(std::span<const double> fitness, std::size_t count,
                   gs::util::Rng& rng,
                   std::vector<std::size_t>& out) const override {
    Stopwatch w(t_);
    inner_.select_into(fitness, count, rng, out);
  }
  std::string name() const override { return inner_.name(); }

 private:
  const gs::ga::SelectionOp& inner_;
  OpTotals& t_;
};

class TimedCrossover final : public gs::ga::CrossoverOp {
 public:
  TimedCrossover(const gs::ga::CrossoverOp& inner, OpTotals& t)
      : inner_(inner), t_(t) {}
  void apply_into(const gs::ga::Chromosome& a, const gs::ga::Chromosome& b,
                  gs::ga::Chromosome& c1, gs::ga::Chromosome& c2,
                  gs::util::Rng& rng) const override {
    Stopwatch w(t_);
    inner_.apply_into(a, b, c1, c2, rng);
  }
  std::string name() const override { return inner_.name(); }

 private:
  const gs::ga::CrossoverOp& inner_;
  OpTotals& t_;
};

class TimedMutation final : public gs::ga::MutationOp {
 public:
  TimedMutation(const gs::ga::MutationOp& inner, OpTotals& t)
      : inner_(inner), t_(t) {}
  void apply(gs::ga::Chromosome& c, gs::util::Rng& rng) const override {
    Stopwatch w(t_);
    inner_.apply(c, rng);
  }
  std::string name() const override { return inner_.name(); }

 private:
  const gs::ga::MutationOp& inner_;
  OpTotals& t_;
};

/// Forwarding GaProblem: evaluation and improve() are timed, everything
/// else passes straight through (the workspace is the inner problem's).
class TimedProblem final : public gs::ga::GaProblem {
 public:
  TimedProblem(const gs::ga::GaProblem& inner, ReplayTotals& t)
      : inner_(inner), t_(t) {}
  double fitness(const gs::ga::Chromosome& c) const override {
    return inner_.fitness(c);
  }
  double objective(const gs::ga::Chromosome& c) const override {
    return inner_.objective(c);
  }
  Evaluation evaluate(const gs::ga::Chromosome& c,
                      Workspace* ws) const override {
    Stopwatch w(t_.eval);
    return inner_.evaluate(c, ws);
  }
  void evaluate_batch(std::span<const gs::ga::Chromosome> pop,
                      std::span<const std::size_t> indices, Workspace* ws,
                      Evaluation* out) const override {
    const std::uint64_t t0 = trace::now_ns();
    inner_.evaluate_batch(pop, indices, ws, out);
    t_.eval.ns += trace::now_ns() - t0;
    t_.eval.calls += indices.size();
  }
  std::unique_ptr<Workspace> make_workspace() const override {
    return inner_.make_workspace();
  }
  bool improve(gs::ga::Chromosome& c, gs::util::Rng& rng,
               Workspace* ws) const override {
    Stopwatch w(t_.rebalance);
    const bool changed = inner_.improve(c, rng, ws);
    t_.accepted += changed ? 1 : 0;
    return changed;
  }

 private:
  const gs::ga::GaProblem& inner_;
  ReplayTotals& t_;
};

}  // namespace

// --- registration -------------------------------------------------------------

std::string timed_name(const std::string& name) { return name + "@perfbench"; }

void register_timed(const std::vector<std::string>& names) {
  auto& registry = gs::exp::SchedulerRegistry::instance();
  for (const std::string& name : names) {
    const std::string canonical = registry.canonical_name(name);
    if (registry.contains(timed_name(canonical))) continue;
    registry.add(
        {.name = timed_name(canonical),
         .summary = "timed forwarder to " + canonical + " (perfbench)",
         .factory = [canonical](const gs::exp::SchedulerParams& p) {
           return std::make_unique<TimedPolicy>(
               gs::exp::SchedulerRegistry::instance().create(canonical, p),
               canonical);
         }});
  }
}

void set_sched_metrics(const std::string& scheduler, const SchedTotals& t,
                       Outcome& out) {
  const std::string p = "sched." + scheduler;
  out.set(p + ".calls", static_cast<double>(t.calls));
  out.set(p + ".batch_mean",
          t.calls ? static_cast<double>(t.tasks) / static_cast<double>(t.calls)
                  : 0.0);
  out.set(p + ".busy_s", 1e-9 * static_cast<double>(t.invoke_ns));
  out.set(p + ".invoke_p50_ms", quantile(t.invoke_ms, 0.50));
  out.set(p + ".invoke_p99_ms", quantile(t.invoke_ms, 0.99));
}

// --- Probe ----------------------------------------------------------------------

Probe& Probe::instance() {
  static Probe probe;
  return probe;
}

void Probe::reset(std::set<std::string> latency_of, bool capture) {
  std::lock_guard lk(mu_);
  latency_of_ = std::move(latency_of);
  capture_ = capture;
  totals_.clear();
  captures_.clear();
  incomplete_.store(false, std::memory_order_relaxed);
}

void Probe::mark_incomplete() noexcept {
  incomplete_.store(true, std::memory_order_relaxed);
}

void Probe::fold(const std::string& scheduler, SchedTotals&& t,
                 std::vector<Capture>&& captures) {
  std::lock_guard lk(mu_);
  SchedTotals& acc = totals_[scheduler];
  acc.calls += t.calls;
  acc.tasks += t.tasks;
  acc.invoke_ns += t.invoke_ns;
  acc.life_ns += t.life_ns;
  acc.invoke_ms.insert(acc.invoke_ms.end(), t.invoke_ms.begin(),
                       t.invoke_ms.end());
  for (Capture& c : captures) captures_.push_back(std::move(c));
}

std::map<std::string, SchedTotals> Probe::totals() const {
  std::lock_guard lk(mu_);
  return totals_;
}

std::vector<Capture> Probe::take_captures() {
  std::lock_guard lk(mu_);
  return std::move(captures_);
}

// --- replay -----------------------------------------------------------------------

void ReplayTotals::add(const ReplayTotals& o) {
  select.add(o.select);
  crossover.add(o.crossover);
  mutate.add(o.mutate);
  init.add(o.init);
  run.add(o.run);
  rebalance.add(o.rebalance);
  eval.add(o.eval);
  accepted += o.accepted;
  generations += o.generations;
  replays += o.replays;
  matches += o.matches;
}

ReplayTotals replay(const Capture& cap, std::size_t max_generations,
                    std::uint64_t* allocs) {
  const gs::core::GeneticSchedulerConfig& cfg = cap.cfg;
  if (cfg.islands > 1 || cfg.max_wall_seconds > 0.0) {
    throw std::runtime_error(
        "replay supports the single-population GA without a wall budget");
  }
  ReplayTotals t;
  const std::size_t procs = cap.view.size();
  const std::size_t batch = cap.live.total();
  if (batch > cap.sizes.size()) {
    throw std::runtime_error("replay: capture holds fewer tasks than the batch");
  }

  const gs::core::ScheduleCodec codec(batch, procs);
  const gs::core::ScheduleEvaluator eval(
      std::vector<double>(cap.sizes.begin(), cap.sizes.begin() + batch),
      cap.view, cfg.use_comm_estimates, cfg.ga.numeric_mode);
  const gs::core::ScheduleProblem problem(codec, eval, cfg.rebalance_probes);
  const TimedProblem timed(problem, t);

  gs::ga::GaConfig ga_cfg = cfg.ga;
  if (!cfg.rebalance) ga_cfg.improvement_passes = 0;
  if (max_generations > 0) ga_cfg.max_generations = max_generations;

  static const gs::ga::RouletteSelection kSelection;
  static const gs::ga::CycleCrossover kCrossover;
  static const gs::ga::SwapMutation kMutation;
  const TimedSelection selection(kSelection, t.select);
  const TimedCrossover crossover(kCrossover, t.crossover);
  const TimedMutation mutation(kMutation, t.mutate);
  const gs::ga::GaEngine engine(ga_cfg, selection, crossover, mutation);

  gs::util::Rng rng = cap.rng;
  std::vector<gs::ga::Chromosome> initial;
  {
    Stopwatch w(t.init);
    initial = gs::core::initial_population(codec, eval, ga_cfg.population,
                                           cfg.random_init_fraction, rng);
  }
  gs::ga::GaResult result;
  {
    Stopwatch w(t.run);
    const std::uint64_t a0 = allocs_this_thread();
    result = engine.run(timed, std::move(initial), rng);
    if (allocs != nullptr) *allocs = allocs_this_thread() - a0;
  }
  t.generations = result.generations;
  t.replays = 1;

  if (max_generations == 0) {
    gs::core::FlatSchedule decoded;
    codec.decode_into(result.best, decoded);
    bool same = cap.live.per_proc.size() == procs;
    for (std::size_t j = 0; same && j < procs; ++j) {
      const auto slots = decoded.queue(j);
      const auto& live = cap.live.per_proc[j];
      same = slots.size() == live.size();
      for (std::size_t k = 0; same && k < slots.size(); ++k) {
        same = cap.ids[slots[k]] == live[k];
      }
    }
    t.matches = same ? 1 : 0;
  }
  return t;
}

// --- TimedSink --------------------------------------------------------------------

// Only rows count as calls; begin() and end() add their time.
void TimedSink::begin(const gasched::metrics::SweepHeader& header) {
  const std::uint64_t t0 = trace::now_ns();
  inner_.begin(header);
  totals_.ns += trace::now_ns() - t0;
}

void TimedSink::row(const gasched::metrics::SweepRow& row) {
  Stopwatch w(totals_);
  inner_.row(row);
}

void TimedSink::end() {
  const std::uint64_t t0 = trace::now_ns();
  inner_.end();
  totals_.ns += trace::now_ns() - t0;
}

}  // namespace perfbench
