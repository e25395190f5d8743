#include "metrics/report_json.hpp"

#include "util/json.hpp"

namespace gasched::metrics {

namespace {

void write_summary(util::JsonWriter& w, const util::Summary& s) {
  w.begin_object();
  w.key("count").number(s.count);
  w.key("mean").number(s.mean);
  w.key("stddev").number(s.stddev);
  w.key("min").number(s.min);
  w.key("max").number(s.max);
  w.key("median").number(s.median);
  w.key("ci95").number(s.ci95);
  w.end_object();
}

}  // namespace

void write_cell_json(util::JsonWriter& w, const CellSummary& cell) {
  w.begin_object();
  w.key("scheduler").string(cell.scheduler);
  w.key("replications").number(cell.replications);
  w.key("makespan");
  write_summary(w, cell.makespan);
  w.key("efficiency");
  write_summary(w, cell.efficiency);
  w.key("sched_wall_seconds");
  write_summary(w, cell.sched_wall);
  w.key("mean_response_time");
  write_summary(w, cell.response);
  w.key("scheduler_invocations");
  write_summary(w, cell.invocations);
  w.key("tasks_requeued");
  write_summary(w, cell.requeued);
  w.end_object();
}

std::string cell_to_json(const CellSummary& cell) {
  util::JsonWriter w;
  write_cell_json(w, cell);
  return w.str();
}

std::string experiment_to_json(const std::string& experiment,
                               const std::vector<CellSummary>& cells) {
  util::JsonWriter w;
  w.begin_object();
  w.key("experiment").string(experiment);
  w.key("cells").begin_array();
  for (const auto& cell : cells) write_cell_json(w, cell);
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace gasched::metrics
