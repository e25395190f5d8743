#include "bench_common.hpp"

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>

namespace gasched::bench {

BenchParams parse_params(int argc, char** argv, std::size_t quick_tasks,
                         std::size_t quick_reps,
                         std::size_t quick_generations) {
  const util::Cli cli(argc, argv);
  BenchParams p;
  exp::FigScale& s = p.scale;
  s.full = util::bench_full_scale() || cli.get_bool("full", false);
  if (s.full) {
    s.tasks = 10000;
    s.reps = 50;
    s.generations = 1000;
  } else {
    s.tasks = quick_tasks;
    s.reps = quick_reps;
    s.generations = quick_generations;
  }
  s.tasks = static_cast<std::size_t>(
      cli.get_int("tasks", static_cast<std::int64_t>(s.tasks)));
  s.reps = static_cast<std::size_t>(
      cli.get_int("reps", static_cast<std::int64_t>(s.reps)));
  s.generations = static_cast<std::size_t>(cli.get_int(
      "generations", static_cast<std::int64_t>(s.generations)));
  s.procs = static_cast<std::size_t>(
      cli.get_int("procs", static_cast<std::int64_t>(s.procs)));
  s.population = static_cast<std::size_t>(
      cli.get_int("population", static_cast<std::int64_t>(s.population)));
  s.batch = static_cast<std::size_t>(
      cli.get_int("batch", static_cast<std::int64_t>(s.batch)));
  s.seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<std::int64_t>(s.seed)));
  p.serial = cli.get_bool("serial", false);
  if (cli.has("csv")) p.csv = cli.get("csv", "");
  if (cli.has("json")) p.json = cli.get("json", "");
  p.resume = cli.get_bool("resume", false);
  if (p.resume && !p.csv && !p.json) {
    std::cerr << "error: --resume needs --csv and/or --json (the files "
                 "are what a resume continues from)\n";
    std::exit(2);
  }
  return p;
}

void print_banner(const std::string& figure, const std::string& title,
                  const std::string& paper_expectation,
                  const BenchParams& p) {
  std::cout << "=== " << figure << ": " << title << " ===\n"
            << "Paper expectation: " << paper_expectation << "\n"
            << "Scale: " << (p.scale.full ? "full (paper)" : "quick")
            << "  tasks=" << p.scale.tasks << " procs=" << p.scale.procs
            << " reps=" << p.scale.reps
            << " generations=" << p.scale.generations
            << " batch=" << p.scale.batch << " seed=" << p.scale.seed
            << (p.serial ? "  (serial execution)" : "") << "\n\n";
}

exp::SweepResult run_sweep(exp::Sweep& sweep, const BenchParams& p,
                           bool print_table) {
  sweep.parallel(!p.serial);
  std::optional<metrics::TableSink> table;
  if (print_table) {
    table.emplace(std::cout);
    sweep.add_sink(*table);
  }
  const metrics::SinkMode mode = p.resume ? metrics::SinkMode::kResume
                                          : metrics::SinkMode::kTruncate;
  std::optional<metrics::CsvSink> csv;
  if (p.csv) {
    csv.emplace(*p.csv, mode);
    sweep.add_sink(*csv);
  }
  std::optional<metrics::JsonlSink> jsonl;
  if (p.json) {
    jsonl.emplace(*p.json, mode);
    sweep.add_sink(*jsonl);
  }
  const exp::SweepResult result = sweep.run();
  if (csv) std::cout << "CSV written to " << csv->path().string() << "\n";
  if (jsonl) {
    std::cout << "JSONL written to " << jsonl->path().string() << "\n";
  }
  if (result.failed > 0) {
    // A failed cell in a bench is always a configuration or regression
    // error, and every downstream shape check would silently compute on
    // default-constructed zeros — abort the binary instead.
    std::cerr << "error: " << result.failed << "/" << result.rows.size()
              << " sweep cells failed (see the error column above)\n";
    std::exit(EXIT_FAILURE);
  }
  if (result.skipped > 0) {
    // Resumed cells hold no in-memory data (their rows were read off
    // disk by the sinks, not recomputed), so the figure-specific tables
    // and shape checks after this call would compute on zeros. The
    // output files are complete — stop here, like figset does.
    std::cout << result.skipped << "/" << result.rows.size()
              << " cells were already on disk (--resume); output files "
                 "are complete. Re-run without --resume for the derived "
                 "tables and shape checks.\n";
    std::exit(EXIT_SUCCESS);
  }
  return result;
}

int run_figure(const std::string& id, int argc, char** argv) {
  const exp::FigureDef& fig = exp::FigSet::instance().find(id);
  BenchParams p = parse_params(argc, argv, fig.quick_tasks, fig.quick_reps,
                               fig.quick_generations);
  // Figures 3/5/7 pin their paper task counts at full scale, but an
  // explicit --tasks wins — the same precedence figset uses, so both
  // drivers build identical grids from identical flags.
  const util::Cli cli(argc, argv);
  if (p.scale.full && fig.full_tasks != 0 && !cli.has("tasks")) {
    p.scale.tasks = fig.full_tasks;
  }
  print_banner(fig.number, fig.title, fig.paper_expectation, p);

  exp::Sweep sweep = fig.build(p.scale);
  const exp::SweepResult result = run_sweep(sweep, p, fig.grid_table);
  if (fig.report) fig.report(result, p.scale, std::cout);
  return 0;
}

}  // namespace gasched::bench
