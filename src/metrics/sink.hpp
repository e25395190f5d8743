#pragma once
/// \file
/// Streaming result sinks for experiment sweeps.
///
/// The sweep executor (exp/sweep.hpp) pushes one SweepRow per grid cell,
/// in job-list order, as soon as the cell and every cell before it have
/// completed. Invariants every implementation and caller can rely on:
///
///  - **Deterministic row order.** Sinks observe rows in the flattened
///    job-list order regardless of how many threads ran the grid or
///    which cells finished first; the ASCII table, CSV file, and JSONL
///    file all see the same sequence.
///  - **Row-flush crash safety.** The file sinks write and flush each
///    row as it arrives, so a killed sweep keeps every cell already
///    flushed on disk — the file is always a valid header plus a prefix
///    of complete rows (plus at most one partial line from a kill
///    mid-write, which the resume scan discards).
///  - **Resumability.** A file sink opened with SinkMode::kResume
///    pre-scans its existing file, records which cell indices are
///    already present, truncates any partial trailing line, and appends
///    only rows it does not hold. The sweep executor skips cells present
///    in *every* resumable sink, so a resumed run's final CSV is
///    byte-identical to an uninterrupted one.
///  - **Thread-count-independent bytes.** The CSV sink deliberately
///    excludes wall-clock statistics so its files are byte-identical
///    across thread counts, machines (for sharded runs), and
///    kill/resume cycles; the table and JSONL keep wall-clock columns.
///
/// These sinks replace the hand-rolled table/CSV/JSON scaffolding the
/// bench binaries used to carry individually.

#include <cstddef>
#include <filesystem>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "metrics/aggregate.hpp"
#include "util/csv.hpp"

namespace gasched::metrics {

/// Static description of a sweep, handed to every sink before any row.
struct SweepHeader {
  std::string name;                        ///< sweep display name
  std::vector<std::string> axes;           ///< axis names, slowest first
  std::vector<std::string> extra_columns;  ///< declared custom columns
};

/// One executed grid cell.
struct SweepRow {
  std::size_t index = 0;  ///< position in the flattened job list
  /// Axis coordinates, parallel to SweepHeader::axes: (axis, label).
  std::vector<std::pair<std::string, std::string>> coords;
  /// Canonical scheduler name; empty for custom-runner cells.
  std::string scheduler;
  /// Aggregated replications (default-constructed when the cell failed).
  CellSummary cell;
  /// Custom-runner payload, matched to SweepHeader::extra_columns by name.
  std::vector<std::pair<std::string, double>> extras;
  /// Non-empty when the cell threw; the row still streams so a partial
  /// grid is inspectable.
  std::string error;
  /// True when the executor skipped this cell (resumed from an existing
  /// sink file, or outside the active shard). Skipped rows carry no
  /// summary and are never delivered to sinks.
  bool skipped = false;

  bool ok() const noexcept { return error.empty(); }
  /// The extras value named `column`, or `fallback` when absent.
  double extra(const std::string& column, double fallback = 0.0) const;
};

/// The exact column list CsvSink writes for a sweep with `header`:
/// index, axes (minus a "scheduler" axis, which the fixed scheduler
/// column already carries), the fixed summary columns, the declared
/// extras, error. Shared with `figset plot` (emitted plot scripts may
/// reference these names and nothing else) and its smoke test.
std::vector<std::string> csv_columns(SweepHeader header);

/// How a file sink treats an existing file at its path.
enum class SinkMode {
  kTruncate,  ///< start fresh (the default)
  kResume,    ///< pre-scan, keep complete rows, append only missing ones
};

/// Receives sweep rows in deterministic job order. Implementations must
/// tolerate begin→end with zero rows.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  /// Called once before any row.
  virtual void begin(const SweepHeader& header);
  /// Called once per cell, in job-list order, during execution.
  virtual void row(const SweepRow& row) = 0;
  /// Called once after the last row.
  virtual void end();
  /// After begin(): the cell indices this sink already holds from a
  /// previous run, or nullptr for passive sinks (tables, progress) that
  /// never constrain resumption. File sinks always return a set — empty
  /// in kTruncate mode — and the sweep executor only skips cells present
  /// in every non-passive sink, so no file ends up with missing rows.
  virtual const std::set<std::size_t>* resumed() const { return nullptr; }
};

/// Accumulates rows and renders one right-aligned ASCII table at end().
/// Columns adapt to content: axes, scheduler (when any row names one),
/// the populated summary statistics, declared extras, and an error
/// column when any cell failed.
class TableSink final : public ResultSink {
 public:
  explicit TableSink(std::ostream& os);
  void begin(const SweepHeader& header) override;
  void row(const SweepRow& row) override;
  void end() override;

 private:
  std::ostream& os_;
  SweepHeader header_;
  std::vector<SweepRow> rows_;
};

/// Crash-safe CSV writer: opens at begin() (header row), appends one
/// data row per cell and flushes it immediately, so a killed sweep
/// keeps every completed cell. Columns are fixed up front:
///   index, <axes...>, scheduler, replications, makespan_mean,
///   makespan_ci95, efficiency_mean, response_mean, invocations_mean,
///   requeued_mean, <extras...>, error
/// Wall-clock statistics are deliberately excluded: the file must be
/// byte-identical across thread counts and runs (the tables keep them).
///
/// In SinkMode::kResume the existing file is scanned at begin(): the
/// header row must match the sweep's schema byte-for-byte (throws
/// std::runtime_error otherwise), complete data rows register their cell
/// index in resumed(), a partial trailing line (kill mid-write) is
/// truncated away, and new rows are appended after the survivors.
class CsvSink final : public ResultSink {
 public:
  explicit CsvSink(std::filesystem::path path,
                   SinkMode mode = SinkMode::kTruncate);
  void begin(const SweepHeader& header) override;
  void row(const SweepRow& row) override;
  const std::set<std::size_t>* resumed() const override { return &present_; }

  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
  SinkMode mode_;
  SweepHeader header_;
  std::set<std::size_t> present_;
  std::unique_ptr<util::CsvWriter> writer_;
};

/// Crash-safe JSON writer: one self-contained JSON object per line
/// (JSON Lines), flushed per row. Each line carries the sweep name,
/// cell index, coordinates, the full aggregated cell (report_json
/// schema, wall-clock included), extras, and the error string if any.
///
/// SinkMode::kResume scans the existing file like CsvSink does: lines
/// must be complete objects for this sweep (throws on a name mismatch),
/// their indices register in resumed(), and a partial trailing line is
/// truncated. Note that resumed JSONL files are *not* byte-identical to
/// fresh runs — they contain wall-clock numbers; only the row set and
/// order are reproduced.
class JsonlSink final : public ResultSink {
 public:
  explicit JsonlSink(std::filesystem::path path,
                     SinkMode mode = SinkMode::kTruncate);
  void begin(const SweepHeader& header) override;
  void row(const SweepRow& row) override;
  const std::set<std::size_t>* resumed() const override { return &present_; }

  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
  SinkMode mode_;
  SweepHeader header_;
  std::set<std::size_t> present_;
  std::unique_ptr<std::ofstream> out_;
};

}  // namespace gasched::metrics
