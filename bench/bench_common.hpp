#pragma once
// Shared infrastructure for the figure-reproduction bench binaries.
//
// Every binary declares its experiment as an exp::Sweep (axes ×
// schedulers, usually on the standard exp::fig_sweep grid), runs it
// through run_sweep — which executes the grid in parallel on
// util::global_pool() and streams results to the standard sinks (ASCII
// table on stdout, crash-safe CSV via --csv, JSONL via --json; --resume
// continues a killed run from whichever of those files exist, including
// JSONL-only runs) — and then prints its figure-specific shape check
// from the returned rows.
// The paper-figure binaries (fig*) are one step thinner:
// their grids are registered in exp::FigSet and run_figure drives the
// whole binary, so the same definitions power tools/figset. Two scales
// are supported:
//   quick (default)       — reduced tasks/replications/generations so the
//                            whole suite runs in minutes;
//   full  (GASCHED_BENCH_SCALE=full or --full) — paper-scale parameters
//                            (10,000 tasks, 50 replications, 1000
//                            generations).
// --serial disables sweep parallelism (the determinism baseline: output
// files are byte-identical to a parallel run).

#include <optional>
#include <string>

#include "exp/figset.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "metrics/sink.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace gasched::bench {

/// Scale-dependent experiment parameters plus the bench's output flags.
struct BenchParams {
  /// Tasks, processors, replications, GA knobs and seed: the same scale
  /// the exp::FigSet grids are built from.
  exp::FigScale scale;
  bool serial = false;             ///< --serial: single-threaded sweep
  std::optional<std::string> csv;  ///< CSV output path (streaming sink)
  std::optional<std::string> json; ///< JSONL output path (streaming sink)
  /// --resume: open the --csv/--json sinks in SinkMode::kResume, so a
  /// killed run continues where its output files stop (cells already on
  /// disk are skipped; see Sweep::run). Requires --csv and/or --json.
  bool resume = false;
};

/// Parses common flags (--tasks, --reps, --generations, --procs, --seed,
/// --csv, --json, --resume, --serial, --full) on top of quick/full
/// defaults. Exits with code 2 when --resume is given without --csv or
/// --json (there would be no file to continue from).
BenchParams parse_params(int argc, char** argv, std::size_t quick_tasks,
                         std::size_t quick_reps,
                         std::size_t quick_generations);

/// Prints the figure banner: id, title, and the paper's qualitative
/// expectation the reproduction should match.
void print_banner(const std::string& figure, const std::string& title,
                  const std::string& paper_expectation,
                  const BenchParams& p);

/// Runs `sweep`, parallel unless --serial, with the standard sinks: ASCII
/// table on stdout (unless `print_table` is false — benches that pivot
/// their own table pass false), streaming CSV at p.csv, streaming JSONL
/// at p.json (both in resume mode under --resume). Failed cells abort the
/// binary with exit code 1 after the table/sinks have reported them (a
/// bench grid must never silently compute its shape checks on missing
/// cells). Cells skipped by a resume make the binary exit 0 once the
/// files are complete: the in-memory rows for resumed cells are empty, so
/// every figure-specific table and shape check downstream of this call
/// would silently compute on zeros — the same reason figset omits reports
/// for resumed runs.
exp::SweepResult run_sweep(exp::Sweep& sweep, const BenchParams& p,
                           bool print_table = true);

/// The whole of a figure bench binary: looks `id` up in exp::FigSet,
/// parses the common flags against the figure's quick defaults (applying
/// its full-scale task pin), prints the banner, builds and runs the grid
/// with the standard sinks, and prints the figure's report/shape check.
/// Returns the process exit code.
int run_figure(const std::string& id, int argc, char** argv);

}  // namespace gasched::bench
