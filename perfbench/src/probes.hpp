#pragma once
// Probes the benchmark puts at layer boundaries, from the outside, using
// only the library's public API:
//
//  * TimedPolicy — a forwarding sim::SchedulingPolicy registered under
//    "<name>@perfbench" for each scheduler the workloads use. It times
//    every invoke() and its own lifetime (one instance lives for one
//    replication), and in capture mode records what a GA invocation saw
//    (view, batch, RNG state, live assignment) so replay() can re-run it.
//  * replay() — re-runs a captured PN/ZO invocation through the public
//    ScheduleCodec / ScheduleEvaluator / ScheduleProblem /
//    initial_population / GaEngine with timed operators and a timed
//    forwarding GaProblem, and checks the best assignment matches.
//  * TimedSink — a forwarding metrics::ResultSink.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/genetic_scheduler.hpp"
#include "metrics/sink.hpp"
#include "sim/policy.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Registry name of the timed forwarder for scheduler `name`.
std::string timed_name(const std::string& name);

/// Registers timed forwarders for the given schedulers (idempotent).
void register_timed(const std::vector<std::string>& names);

/// One GA invocation as the live scheduler saw it.
struct Capture {
  std::string scheduler;
  gasched::core::GeneticSchedulerConfig cfg;
  gasched::sim::SystemView view;
  std::vector<gasched::workload::TaskId> ids;
  std::vector<double> sizes;
  gasched::util::Rng rng;
  gasched::sim::BatchAssignment live;
};

/// What the timed forwarders saw, per scheduler name.
struct SchedTotals {
  std::uint64_t calls = 0;
  std::uint64_t tasks = 0;      ///< tasks assigned over all calls
  std::uint64_t invoke_ns = 0;  ///< time inside invoke()
  std::uint64_t life_ns = 0;    ///< summed instance lifetimes
  std::vector<double> invoke_ms;  ///< per-call latency, when kept
};

/// Sets sched.<scheduler>.{calls,batch_mean,busy_s,invoke_p50_ms,
/// invoke_p99_ms} from `t`.
void set_sched_metrics(const std::string& scheduler, const SchedTotals& t,
                       Outcome& out);

/// Process-wide collector the forwarders fold into when they die.
class Probe {
 public:
  static Probe& instance();

  /// Clears everything; `latency_of` names the schedulers whose per-call
  /// latencies are kept, `capture` turns GA capture on.
  void reset(std::set<std::string> latency_of, bool capture);

  bool keeps_latency(const std::string& scheduler) const {
    return latency_of_.count(scheduler) > 0;
  }
  bool capturing() const { return capture_; }

  void fold(const std::string& scheduler, SchedTotals&& t,
            std::vector<Capture>&& captures);
  /// A forwarder could not fold (allocation failure in its destructor).
  void mark_incomplete() noexcept;
  bool incomplete() const noexcept {
    return incomplete_.load(std::memory_order_relaxed);
  }

  /// Snapshot (call while no forwarder is alive).
  std::map<std::string, SchedTotals> totals() const;
  std::vector<Capture> take_captures();

 private:
  mutable std::mutex mu_;
  std::set<std::string> latency_of_;
  bool capture_ = false;
  std::map<std::string, SchedTotals> totals_;
  std::vector<Capture> captures_;
  std::atomic<bool> incomplete_{false};
};

/// Calls and busy time at one boundary.
struct OpTotals {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  void add(const OpTotals& o) {
    calls += o.calls;
    ns += o.ns;
  }
};

/// Per-layer totals of replayed GA invocations.
struct ReplayTotals {
  OpTotals select, crossover, mutate;
  OpTotals init, run;        ///< initial_population, GaEngine::run
  OpTotals rebalance, eval;  ///< ScheduleProblem::improve / evaluation
  std::uint64_t accepted = 0;  ///< improve() calls that applied a change
  std::uint64_t generations = 0;
  std::uint64_t replays = 0;
  std::uint64_t matches = 0;
  void add(const ReplayTotals& o);
};

/// Replays one capture. With `max_generations` > 0 the GA cap is
/// overridden (no match check) — used for allocation differencing; then
/// `allocs` receives the calling thread's allocations inside
/// GaEngine::run.
ReplayTotals replay(const Capture& cap, std::size_t max_generations = 0,
                    std::uint64_t* allocs = nullptr);

/// Forwarding sink that counts rows and times every call.
class TimedSink final : public gasched::metrics::ResultSink {
 public:
  explicit TimedSink(gasched::metrics::ResultSink& inner) : inner_(inner) {}
  void begin(const gasched::metrics::SweepHeader& header) override;
  void row(const gasched::metrics::SweepRow& row) override;
  void end() override;
  const std::set<std::size_t>* resumed() const override {
    return inner_.resumed();
  }
  const OpTotals& totals() const { return totals_; }

 private:
  gasched::metrics::ResultSink& inner_;
  OpTotals totals_;
};

}  // namespace perfbench
