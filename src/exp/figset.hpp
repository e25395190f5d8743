#pragma once
/// \file
/// The paper-figure suite as data: every fig03–fig11 grid from
/// conf_ipps_PageN05 registered once, so one driver (tools/figset) can
/// run the whole suite — or any tagged/glob-selected subset — as a
/// sequence of sweeps with shared progress, per-figure CSV/JSONL output
/// files, and a run manifest. The bench binaries (bench/fig*.cpp) are
/// thin wrappers over the same definitions, so a figure's grid, scale
/// defaults, and shape check live in exactly one place.
///
/// Because exp::Sweep job lists are deterministic, figure runs compose
/// with resume (SinkMode::kResume skips cells already on disk) and with
/// sharding (Sweep::shard partitions the job list across machines);
/// merge_csv_shards / merge_jsonl_shards stitch shard outputs back into
/// files byte-identical to an unsharded run.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/encoding.hpp"
#include "core/fitness.hpp"
#include "exp/sweep.hpp"
#include "util/rng.hpp"

namespace gasched::exp {

/// Scale-resolved parameters a figure grid is built from. Produced by
/// FigureDef::scale() (quick or paper-scale defaults) and then
/// overridable from the command line.
struct FigScale {
  std::size_t tasks = 1000;       ///< tasks per simulation
  std::size_t procs = 50;         ///< processors (paper: 50)
  std::size_t reps = 3;           ///< replications per cell
  std::size_t generations = 120;  ///< GA generation cap
  std::size_t population = 20;    ///< GA population (paper: 20)
  std::size_t batch = 200;        ///< fixed batch size (paper: 200)
  std::uint64_t seed = 20050404;  ///< base seed (IPPS 2005 vintage)
  bool full = false;              ///< paper-scale switch
};

// --- the standard grid (figures and bench/ grids alike) ----------------------

/// Shared [scheduler] parameters at scale `s`: batch_size,
/// max_generations, population and pn_dynamic_batch.
SchedulerParams fig_params(const FigScale& s, bool pn_dynamic_batch = true);

/// The standard scenario: paper cluster at `mean_comm_cost` with `spec`
/// sizes, scaled by `s`.
Scenario fig_scenario(const FigScale& s, const WorkloadSpec& spec,
                      double mean_comm_cost, std::string name);

/// A Sweep named `id` with fig_scenario as its base cell and fig_params
/// as its parameters. Add axes (and a runner) on top.
Sweep fig_sweep(const std::string& id, const FigScale& s,
                const WorkloadSpec& spec, double mean_comm_cost,
                bool pn_dynamic_batch = true);

// --- the GA-batch study (Fig 3 and the GA ablations) -------------------------

/// One replication of the GA-batch study: a single batch of s.tasks sizes
/// drawn from N(1000, 9e5) on the paper cluster at mean comm cost 20,
/// priced in steady state (Linpack rates, no pending load, comm estimates
/// at the true link means), as the paper studies the GA in Fig 3.
struct GaBatch {
  core::ScheduleCodec codec;
  core::ScheduleEvaluator eval;
  /// The study's base stream (seed s.seed). Callers split their GA and
  /// init streams from it at their own offsets; the batch itself uses
  /// substreams 2·rep (cluster) and 2·rep + 1 (sizes).
  util::Rng streams;
};

/// Builds replication rep of the GA-batch study for each rep in
/// [0, s.reps) and calls `body(rep, batch)` on it, across
/// util::global_pool() when `parallel`. The batch of replication rep
/// depends only on (s.seed, rep), so every cell of an ablation sees the
/// same batches and the results do not depend on `parallel`.
void run_ga_batch_study(
    const FigScale& s, bool parallel,
    const std::function<void(std::size_t rep, const GaBatch& batch)>& body);

/// One figure of the paper, registered as data: identity and paper
/// context, quick/full scale defaults, a builder that declares the grid
/// for a resolved scale, and a report that prints the figure-specific
/// derived tables and qualitative shape check from a completed result.
struct FigureDef {
  std::string id;           ///< suite key and file stem ("fig06")
  std::string number;       ///< display name ("Figure 6")
  std::string title;
  std::string paper_expectation;  ///< the qualitative claim to reproduce
  std::string paper_section;      ///< e.g. "§4.3"
  std::vector<std::string> tags;  ///< subset selectors ("makespan", ...)

  std::size_t quick_tasks = 1000;
  std::size_t quick_reps = 3;
  std::size_t quick_generations = 120;
  /// Task-count override at full scale (0 = the suite default of 10000;
  /// figs 3, 5 and 7 pin their own counts as the paper does).
  std::size_t full_tasks = 0;
  /// False for figures that pivot/print their own tables (3, 5, 7): the
  /// generic grid table would only repeat them.
  bool grid_table = true;

  /// Declares the figure's grid for `s`. The returned sweep has base
  /// scenario, params, axes, extra columns, and any custom runner set;
  /// parallelism, sinks, shard, and progress are the caller's business.
  std::function<Sweep(const FigScale& s)> build;
  /// Prints derived tables and the shape-check verdict. Only valid for
  /// results with no skipped cells (a resumed or sharded run holds only
  /// part of the data; the driver omits the report and says so).
  std::function<void(const SweepResult& r, const FigScale& s,
                     std::ostream& os)>
      report;

  /// Quick or paper-scale parameters for this figure (tasks 10000 /
  /// reps 50 / generations 1000 at full scale, unless full_tasks pins
  /// the count).
  FigScale scale(bool full) const;
};

/// Process-wide figure registry, pre-populated with fig03–fig11. Same
/// contract as the scheduler/distribution registries: entries are never
/// removed, so references stay valid; add() rejects duplicate ids.
class FigSet {
 public:
  static FigSet& instance();

  /// Registers a figure (user extensions). Throws std::invalid_argument
  /// on an empty/duplicate id or missing build.
  void add(FigureDef def);

  /// All figures in registration (= paper) order.
  const std::vector<FigureDef>& figures() const;

  /// The figure with `id` (exact match). Throws std::runtime_error
  /// listing every registered id when unknown.
  const FigureDef& find(const std::string& id) const;

  /// Figures whose id matches glob `only` (empty = all; `*`, `?`, and
  /// `[a-z]` classes — e.g. "fig0[5-9]") and that carry `tag` (empty =
  /// any), in registration order.
  std::vector<const FigureDef*> select(const std::string& only,
                                       const std::string& tag) const;

 private:
  FigSet();
  std::vector<FigureDef> figures_;
};

/// Glob match over `text`: `*` (any run), `?` (any char), and
/// `[...]`/`[!...]` character classes with `-` ranges. Anchored at both
/// ends, case-sensitive.
bool glob_match(const std::string& pattern, const std::string& text);

/// Parses a `--shard I/N` specification into (index, count). Strict:
/// both parts must be whole decimal numbers, N > 0, I < N — trailing
/// garbage is rejected, not ignored. Throws std::runtime_error with a
/// usage-quality message otherwise (shared by figset and run_scenario).
std::pair<std::size_t, std::size_t> parse_shard_spec(
    const std::string& spec);

/// Stitches shard CSV files (disjoint subsets of one sweep's rows, as
/// written by CsvSink under Sweep::shard) into `out`: one header, data
/// lines in ascending cell-index order, every line byte-for-byte as the
/// shard wrote it — so the merged file is byte-identical to an unsharded
/// run. Throws std::runtime_error on a header mismatch between shards,
/// a duplicate cell index, or an unparseable line.
void merge_csv_shards(const std::vector<std::filesystem::path>& shards,
                      const std::filesystem::path& out);

/// JSONL counterpart of merge_csv_shards: lines are kept verbatim and
/// ordered by their "index" field. (Unlike the CSV, JSONL rows contain
/// wall-clock numbers, so the merged file matches an unsharded run's
/// row set and order but not its bytes.)
void merge_jsonl_shards(const std::vector<std::filesystem::path>& shards,
                        const std::filesystem::path& out);

/// `figset plot`: writes ready-to-run plot scripts for `fig` into `dir`,
/// next to the `<id>.csv` a `figset run` left there — `<id>.gp`
/// (gnuplot ≥ 5.0) and `<id>.py` (matplotlib + the csv stdlib module,
/// no pandas). Both read the CSV by relative name, so they run from
/// inside the output directory, and both render `<id>.png`.
///
/// The plot shape is derived from the figure's grid: a numeric
/// non-scheduler axis becomes the x axis with one line per scheduler
/// (efficiency-tagged figures plot efficiency_mean, the rest
/// makespan_mean ± makespan_ci95); grids with only categorical axes
/// become labeled bars. Scripts reference CSV columns strictly by name
/// — gnuplot `column('…')`/`strcol('…')`, python `row['…']` — and only
/// names from metrics::csv_columns for the figure's sweep; the
/// figset_plot_test smoke test enforces that vocabulary.
///
/// Returns the paths written (gp first). Throws std::runtime_error when
/// a script file cannot be created.
std::vector<std::filesystem::path> write_plot_scripts(
    const FigureDef& fig, const FigScale& scale,
    const std::filesystem::path& dir);

}  // namespace gasched::exp
