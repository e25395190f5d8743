// Tests for the paper-figure registry (exp::FigSet): the nine fig03–
// fig11 definitions, glob/tag selection, scale resolution, shard-merge
// helpers, and an end-to-end proof that a sharded-then-merged figure CSV
// is byte-identical to an unsharded run.

#include "exp/figset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "metrics/sink.hpp"

namespace gasched::exp {
namespace {

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct TempFile {
  std::filesystem::path path;
  explicit TempFile(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             ("gasched_figset_" + name)) {
    std::filesystem::remove(path);
  }
  ~TempFile() { std::filesystem::remove(path); }
};

void write_file(const std::filesystem::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << text;
}

/// A fast scale for grid-declaration tests (nothing is executed).
FigScale tiny_scale() {
  FigScale s;
  s.tasks = 40;
  s.procs = 6;
  s.reps = 1;
  s.generations = 6;
  s.population = 8;
  s.batch = 20;
  return s;
}

TEST(FigSetRegistry, NinePaperFiguresRegistered) {
  const auto& figures = FigSet::instance().figures();
  ASSERT_GE(figures.size(), 9u);
  const std::vector<std::string> expected{
      "fig03", "fig04", "fig05", "fig06", "fig07",
      "fig08", "fig09", "fig10", "fig11"};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(figures[i].id, expected[i]);
    EXPECT_TRUE(figures[i].build) << figures[i].id;
    EXPECT_TRUE(figures[i].report) << figures[i].id;
    EXPECT_FALSE(figures[i].tags.empty()) << figures[i].id;
    EXPECT_FALSE(figures[i].paper_expectation.empty()) << figures[i].id;
  }
}

TEST(FigSetRegistry, FindExactAndUnknownListsIds) {
  EXPECT_EQ(FigSet::instance().find("fig06").number, "Figure 6");
  try {
    FigSet::instance().find("fig99");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fig06"), std::string::npos)
        << "error must list registered ids";
  }
}

TEST(FigSetRegistry, SelectByGlobAndTag) {
  const auto& set = FigSet::instance();
  EXPECT_EQ(set.select("", "").size(), set.figures().size());
  const auto range = set.select("fig0[5-9]", "");
  ASSERT_EQ(range.size(), 5u);
  EXPECT_EQ(range.front()->id, "fig05");
  EXPECT_EQ(range.back()->id, "fig09");
  const auto makespan = set.select("", "makespan");
  ASSERT_EQ(makespan.size(), 5u);  // figs 6, 8, 9, 10, 11
  EXPECT_EQ(makespan.front()->id, "fig06");
  const auto both = set.select("fig1*", "poisson");
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[0]->id, "fig10");
  EXPECT_EQ(both[1]->id, "fig11");
  EXPECT_TRUE(set.select("fig99", "").empty());
}

TEST(FigSetRegistry, ScaleResolvesQuickFullAndPins) {
  const auto& fig06 = FigSet::instance().find("fig06");
  const FigScale quick = fig06.scale(false);
  EXPECT_EQ(quick.tasks, 1000u);
  EXPECT_EQ(quick.reps, 3u);
  EXPECT_FALSE(quick.full);
  const FigScale full = fig06.scale(true);
  EXPECT_EQ(full.tasks, 10000u);
  EXPECT_EQ(full.reps, 50u);
  EXPECT_EQ(full.generations, 1000u);
  // Figures 3, 5, 7 pin their paper task counts at full scale.
  EXPECT_EQ(FigSet::instance().find("fig03").scale(true).tasks, 200u);
  EXPECT_EQ(FigSet::instance().find("fig05").scale(true).tasks, 1000u);
  EXPECT_EQ(FigSet::instance().find("fig07").scale(true).tasks, 1000u);
}

TEST(FigSetRegistry, EveryFigureBuildsItsGrid) {
  const FigScale s = tiny_scale();
  const std::vector<std::pair<std::string, std::size_t>> expected_cells{
      {"fig03", 3},  {"fig04", 11}, {"fig05", 35}, {"fig06", 7},
      {"fig07", 35}, {"fig08", 7},  {"fig09", 7},  {"fig10", 7},
      {"fig11", 7}};
  for (const auto& [id, cells] : expected_cells) {
    Sweep sweep = FigSet::instance().find(id).build(s);
    EXPECT_EQ(sweep.cell_count(), cells) << id;
    EXPECT_FALSE(sweep.flatten().empty()) << id;
  }
}

TEST(FigSetRegistry, AddRejectsDuplicatesAndEmpty) {
  FigureDef dup;
  dup.id = "fig06";
  dup.build = [](const FigScale&) { return Sweep("x"); };
  EXPECT_THROW(FigSet::instance().add(dup), std::invalid_argument);
  FigureDef empty;
  EXPECT_THROW(FigSet::instance().add(empty), std::invalid_argument);
}

TEST(GaBatchStudy, ReplicationDependsOnlyOnSeedAndRep) {
  FigScale s;
  s.tasks = 30;
  s.procs = 6;
  s.reps = 4;
  s.seed = 7;
  // ψ = total work / total rate fingerprints a replication's sizes and
  // cluster together.
  auto fingerprints = [&s](bool parallel) {
    std::vector<double> psi(s.reps, 0.0);
    run_ga_batch_study(s, parallel, [&](std::size_t rep, const GaBatch& b) {
      EXPECT_EQ(b.eval.num_tasks(), s.tasks);
      EXPECT_EQ(b.eval.num_procs(), s.procs);
      psi[rep] = b.eval.psi();
    });
    return psi;
  };
  const std::vector<double> serial = fingerprints(false);
  EXPECT_EQ(fingerprints(true), serial);
  EXPECT_NE(serial[0], serial[1]);
  s.reps = 6;  // more replications leave the first ones as they were
  const std::vector<double> more = fingerprints(true);
  EXPECT_TRUE(std::equal(serial.begin(), serial.end(), more.begin()));
}

TEST(FigGrid, SweepStartsFromFigScenarioAndFigParams) {
  FigScale s = tiny_scale();
  s.seed = 9;
  s.reps = 2;
  WorkloadSpec spec;
  spec.dist = "uniform";
  spec.param_a = 10.0;
  spec.param_b = 100.0;
  spec.count = 999;  // replaced by the scale's task count
  const std::vector<SweepCell> cells =
      fig_sweep("grid", s, spec, 20.0, /*pn_dynamic_batch=*/false).flatten();
  ASSERT_EQ(cells.size(), 1u);
  const Scenario& sc = cells[0].scenario;
  EXPECT_EQ(sc.name, "grid");
  EXPECT_EQ(sc.workload.dist, "uniform");
  EXPECT_EQ(sc.workload.count, s.tasks);
  EXPECT_EQ(sc.seed, s.seed);
  EXPECT_EQ(sc.replications, s.reps);
  EXPECT_EQ(sc.cluster.num_processors, s.procs);
  const Scenario direct = fig_scenario(s, spec, 20.0, "grid");
  EXPECT_EQ(sc.cluster.comm.mean_cost, direct.cluster.comm.mean_cost);
  EXPECT_EQ(sc.cluster.rate_lo, direct.cluster.rate_lo);
  EXPECT_EQ(sc.cluster.rate_hi, direct.cluster.rate_hi);

  const SchedulerParams& p = cells[0].params;
  EXPECT_EQ(p.get_size("batch_size", 0), s.batch);
  EXPECT_EQ(p.get_size("max_generations", 0), s.generations);
  EXPECT_EQ(p.get_size("population", 0), s.population);
  EXPECT_FALSE(p.get_bool("pn_dynamic_batch", true));
  EXPECT_TRUE(fig_params(s).get_bool("pn_dynamic_batch", false));
}

TEST(GlobMatch, StarsQuestionsAndClasses) {
  EXPECT_TRUE(glob_match("fig06", "fig06"));
  EXPECT_FALSE(glob_match("fig06", "fig07"));
  EXPECT_TRUE(glob_match("fig*", "fig11"));
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("fig0?", "fig05"));
  EXPECT_FALSE(glob_match("fig0?", "fig0"));
  EXPECT_TRUE(glob_match("fig0[5-9]", "fig07"));
  EXPECT_FALSE(glob_match("fig0[5-9]", "fig04"));
  EXPECT_FALSE(glob_match("fig0[5-9]", "fig10"));
  EXPECT_TRUE(glob_match("fig[!0]?", "fig10"));
  EXPECT_FALSE(glob_match("fig[!0]?", "fig05"));
  EXPECT_TRUE(glob_match("fig[01]*", "fig10"));
  EXPECT_TRUE(glob_match("*[0-9]", "fig10"));
  EXPECT_FALSE(glob_match("", "fig10"));
  EXPECT_TRUE(glob_match("", ""));
  EXPECT_TRUE(glob_match("a[b", "a[b"));  // unclosed class: literal
}

TEST(MergeShards, CsvStitchesInIndexOrder) {
  TempFile a("merge_a.csv"), b("merge_b.csv"), out("merge_out.csv");
  write_file(a.path, "index,x,error\n0,1,\n2,3,\n");
  write_file(b.path, "index,x,error\n1,2,\n3,4,\n");
  merge_csv_shards({a.path, b.path}, out.path);
  EXPECT_EQ(read_file(out.path), "index,x,error\n0,1,\n1,2,\n2,3,\n3,4,\n");
}

TEST(MergeShards, CsvRejectsHeaderMismatchDuplicatesAndGarbage) {
  TempFile a("bad_a.csv"), b("bad_b.csv"), out("bad_out.csv");
  write_file(a.path, "index,x\n0,1\n");
  write_file(b.path, "index,y\n1,2\n");
  EXPECT_THROW(merge_csv_shards({a.path, b.path}, out.path),
               std::runtime_error);
  write_file(b.path, "index,x\n0,9\n");
  EXPECT_THROW(merge_csv_shards({a.path, b.path}, out.path),
               std::runtime_error);  // duplicate index 0
  write_file(b.path, "index,x\nnot_a_number,2\n");
  EXPECT_THROW(merge_csv_shards({a.path, b.path}, out.path),
               std::runtime_error);
  write_file(b.path, "index,x\n1,2,3\n");
  EXPECT_THROW(merge_csv_shards({a.path, b.path}, out.path),
               std::runtime_error);  // wrong column count
  EXPECT_THROW(merge_csv_shards({}, out.path), std::runtime_error);
}

TEST(MergeShards, JsonlOrdersByIndexField) {
  TempFile a("merge_a.jsonl"), b("merge_b.jsonl"), out("merge_out.jsonl");
  write_file(a.path,
             "{\"sweep\":\"s\",\"index\":2,\"v\":1}\n"
             "{\"sweep\":\"s\",\"index\":0,\"v\":2}\n");
  write_file(b.path, "{\"sweep\":\"s\",\"index\":1,\"v\":3}\n");
  merge_jsonl_shards({a.path, b.path}, out.path);
  EXPECT_EQ(read_file(out.path),
            "{\"sweep\":\"s\",\"index\":0,\"v\":2}\n"
            "{\"sweep\":\"s\",\"index\":1,\"v\":3}\n"
            "{\"sweep\":\"s\",\"index\":2,\"v\":1}\n");
  write_file(b.path, "{\"sweep\":\"s\",\"index\":0,\"v\":9}\n");
  EXPECT_THROW(merge_jsonl_shards({a.path, b.path}, out.path),
               std::runtime_error);  // duplicate index
  write_file(b.path, "{\"sweep\":\"s\",\"no_index\":1}\n");
  EXPECT_THROW(merge_jsonl_shards({a.path, b.path}, out.path),
               std::runtime_error);
}

// The ISSUE's acceptance criterion, at test scale: shard a real figure
// grid across two "machines", merge, and compare bytes against the
// unsharded run.
TEST(MergeShards, ShardedFigureMergesByteIdentical) {
  const FigureDef& fig06 = FigSet::instance().find("fig06");
  const FigScale s = tiny_scale();

  TempFile full("e2e_full.csv"), s0("e2e_s0.csv"), s1("e2e_s1.csv"),
      merged("e2e_merged.csv");

  auto run = [&](const std::filesystem::path& path, int shard) {
    Sweep sweep = fig06.build(s);
    sweep.progress(false);
    if (shard >= 0) sweep.shard(static_cast<std::size_t>(shard), 2);
    metrics::CsvSink sink(path);
    sweep.add_sink(sink);
    const SweepResult result = sweep.run();
    EXPECT_EQ(result.failed, 0u);
    return result;
  };
  run(full.path, -1);
  const auto r0 = run(s0.path, 0);
  const auto r1 = run(s1.path, 1);
  EXPECT_EQ(r0.skipped + r1.skipped, r0.rows.size());

  merge_csv_shards({s0.path, s1.path}, merged.path);
  const std::string expected = read_file(full.path);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(read_file(merged.path), expected)
      << "sharded-then-merged CSV must be byte-identical to an unsharded "
         "run";
}

}  // namespace
}  // namespace gasched::exp
