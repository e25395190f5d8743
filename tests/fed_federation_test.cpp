// fed::Federation: topology parsing, spillover conservation (no task
// lost or duplicated across migrations), and determinism — serial and
// thread-pool replication runs must produce bit-identical results.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>

#include "fed/federation.hpp"
#include "fed/topology.hpp"
#include "util/config.hpp"

namespace gasched::fed {
namespace {

// --- Topology ----------------------------------------------------------

TEST(TopologyTest, FullMeshLinksEveryOrderedPair) {
  const Topology t = Topology::full_mesh(4);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.link_count(), 12u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(t.connected(i, i));
    EXPECT_EQ(t.neighbors(i).size(), 3u);
  }
}

TEST(TopologyTest, StarRoutesThroughHub) {
  const Topology t = Topology::star(5, /*hub=*/2);
  EXPECT_EQ(t.link_count(), 8u);  // 4 spokes × 2 directions
  EXPECT_EQ(t.neighbors(2).size(), 4u);
  EXPECT_TRUE(t.connected(0, 2));
  EXPECT_TRUE(t.connected(2, 0));
  EXPECT_FALSE(t.connected(0, 1));
  EXPECT_THROW(Topology::star(3, 7), std::invalid_argument);
}

TEST(TopologyTest, RingLinksAdjacentOnly) {
  const Topology t = Topology::ring(4);
  EXPECT_EQ(t.link_count(), 8u);
  EXPECT_TRUE(t.connected(0, 3));  // wrap-around
  EXPECT_TRUE(t.connected(3, 0));
  EXPECT_FALSE(t.connected(0, 2));
  EXPECT_EQ(t.neighbors(1), (std::vector<std::size_t>{0, 2}));
}

TEST(TopologyTest, TransferTimeIsLatencyPlusSizeOverBandwidth) {
  Topology t(2);
  t.add_link(0, 1, LinkParams{0.5, 1000.0});
  EXPECT_DOUBLE_EQ(t.transfer_time(0, 1, 2000.0), 0.5 + 2.0);
  EXPECT_THROW(t.transfer_time(1, 0, 1.0), std::invalid_argument);
}

TEST(TopologyTest, RejectsBadLinks) {
  Topology t(3);
  EXPECT_THROW(t.add_link(0, 0, {}), std::invalid_argument);
  EXPECT_THROW(t.add_link(0, 9, {}), std::invalid_argument);
  EXPECT_THROW(t.add_link(0, 1, LinkParams{0.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(t.add_link(0, 1, LinkParams{1.0, -5.0}),
               std::invalid_argument);
}

// --- INI parsing -------------------------------------------------------

constexpr const char* kBaseIni = R"(
[federation]
clusters = edge, core, burst
topology = full_mesh
router = round_robin
migration = threshold
migration_threshold = 8
migration_chunk = 8
seed = 7
replications = 2
latency = 0.25
bandwidth = 2e4

[workload]
dist = uniform
param_a = 10
param_b = 100
count = 240

[scheduler]
batch_size = 16

[cluster.edge]
processors = 4
scheduler = MM
weight = 2

[cluster.core]
processors = 6
rate_lo = 50
rate_hi = 120
scheduler = MM

[cluster.burst]
processors = 4
scheduler = MM
)";

TEST(FederationConfigTest, ParsesClustersTopologyAndPolicies) {
  const auto cfg =
      federation_from_config(util::Config::parse(kBaseIni));
  ASSERT_EQ(cfg.clusters.size(), 3u);
  EXPECT_EQ(cfg.clusters[0].name, "edge");
  EXPECT_EQ(cfg.clusters[0].cluster.num_processors, 4u);
  EXPECT_DOUBLE_EQ(cfg.clusters[0].weight, 2.0);
  EXPECT_EQ(cfg.clusters[1].cluster.num_processors, 6u);
  EXPECT_DOUBLE_EQ(cfg.clusters[1].cluster.rate_lo, 50.0);
  EXPECT_EQ(cfg.clusters[2].scheduler, "MM");
  EXPECT_EQ(cfg.topology.size(), 3u);
  EXPECT_EQ(cfg.topology.link_count(), 6u);
  ASSERT_NE(cfg.topology.link(0, 1), nullptr);
  EXPECT_DOUBLE_EQ(cfg.topology.link(0, 1)->latency, 0.25);
  EXPECT_DOUBLE_EQ(cfg.topology.link(0, 1)->bandwidth, 2e4);
  EXPECT_EQ(cfg.router, RouterKind::kRoundRobin);
  EXPECT_EQ(cfg.migration, MigrationKind::kThreshold);
  EXPECT_EQ(cfg.migration_threshold, 8u);
  EXPECT_EQ(cfg.workload.count, 240u);
  EXPECT_EQ(cfg.workload.dist, "uniform");
  EXPECT_EQ(cfg.scheduler_params.get_size("batch_size", 0), 16u);
}

TEST(FederationConfigTest, LinkSectionsOverrideAndDefineCustomTopology) {
  const std::string ini = std::string(kBaseIni) +
                          "\n[link.edge.core]\nlatency = 1.5\n";
  const auto cfg = federation_from_config(util::Config::parse(ini));
  ASSERT_NE(cfg.topology.link(0, 1), nullptr);
  EXPECT_DOUBLE_EQ(cfg.topology.link(0, 1)->latency, 1.5);
  // Unmentioned key keeps the federation default.
  EXPECT_DOUBLE_EQ(cfg.topology.link(0, 1)->bandwidth, 2e4);
  // Other links untouched.
  EXPECT_DOUBLE_EQ(cfg.topology.link(1, 0)->latency, 0.25);

  // A custom topology has only the [link.*] edges.
  std::string custom(kBaseIni);
  const auto pos = custom.find("topology = full_mesh");
  custom.replace(pos, std::string("topology = full_mesh").size(),
                 "topology = custom");
  custom += "\n[link.edge.core]\nlatency = 0.1\n[link.core.edge]\n"
            "bandwidth = 1e3\n";
  const auto ccfg = federation_from_config(util::Config::parse(custom));
  EXPECT_EQ(ccfg.topology.link_count(), 2u);
  EXPECT_TRUE(ccfg.topology.connected(0, 1));
  EXPECT_TRUE(ccfg.topology.connected(1, 0));
  EXPECT_FALSE(ccfg.topology.connected(0, 2));
}

TEST(FederationConfigTest, StarHubByName) {
  std::string ini(kBaseIni);
  const auto pos = ini.find("topology = full_mesh");
  ini.replace(pos, std::string("topology = full_mesh").size(),
              "topology = star\nhub = core");
  const auto cfg = federation_from_config(util::Config::parse(ini));
  EXPECT_EQ(cfg.topology.neighbors(1).size(), 2u);  // core is the hub
  EXPECT_FALSE(cfg.topology.connected(0, 2));
}

TEST(FederationConfigTest, RejectsUnknownNames) {
  EXPECT_THROW(federation_from_config(util::Config::parse("[federation]\n")),
               std::runtime_error);
  auto bad = [&](const std::string& find, const std::string& replace) {
    std::string ini(kBaseIni);
    ini.replace(ini.find(find), find.size(), replace);
    return util::Config::parse(ini);
  };
  EXPECT_THROW(
      federation_from_config(bad("router = round_robin", "router = zigzag")),
      std::runtime_error);
  EXPECT_THROW(federation_from_config(
                   bad("migration = threshold", "migration = telepathy")),
               std::runtime_error);
  EXPECT_THROW(federation_from_config(
                   bad("topology = full_mesh", "topology = torus")),
               std::runtime_error);
  EXPECT_THROW(federation_from_config(
                   bad("topology = full_mesh", "topology = star\nhub = nope")),
               std::runtime_error);
}

TEST(FederationConfigTest, RejectsNegativeAndMeaninglessCounts) {
  auto expect_rejected = [](const std::string& find,
                            const std::string& replace,
                            const std::string& key) {
    std::string ini(kBaseIni);
    ini.replace(ini.find(find), find.size(), replace);
    try {
      federation_from_config(util::Config::parse(ini));
      ADD_FAILURE() << replace << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << "error does not name " << key << ": " << e.what();
    }
  };
  expect_rejected("count = 240", "count = -1", "workload.count");
  expect_rejected("count = 240", "count = 0", "workload.count");
  expect_rejected("replications = 2", "replications = -3",
                  "federation.replications");
  expect_rejected("replications = 2", "replications = 0",
                  "federation.replications");
  expect_rejected("migration_threshold = 8", "migration_threshold = -1",
                  "federation.migration_threshold");
  expect_rejected("migration_chunk = 8", "migration_chunk = -8",
                  "federation.migration_chunk");
  expect_rejected("migration_chunk = 8", "migration_chunk = 0",
                  "federation.migration_chunk");
  expect_rejected("[federation]", "[federation]\nmax_event_factor = -1",
                  "federation.max_event_factor");
  expect_rejected("processors = 6", "processors = -6",
                  "cluster.core.processors");
  expect_rejected("processors = 6", "processors = 0",
                  "cluster.core.processors");
}

TEST(FederationConfigTest, AcceptsZeroWhereItHasAMeaning) {
  // Threshold 0 migrates any backlog; max_event_factor 0 disables the
  // event budget; a zero chunk is fine when nothing migrates.
  std::string ini(kBaseIni);
  ini.replace(ini.find("migration_threshold = 8"),
              std::string("migration_threshold = 8").size(),
              "migration_threshold = 0\nmax_event_factor = 0");
  const auto cfg = federation_from_config(util::Config::parse(ini));
  EXPECT_EQ(cfg.migration_threshold, 0u);
  EXPECT_EQ(cfg.max_event_factor, 0u);

  std::string isolated(kBaseIni);
  isolated.replace(isolated.find("migration = threshold"),
                   std::string("migration = threshold").size(),
                   "migration = none");
  isolated.replace(isolated.find("migration_chunk = 8"),
                   std::string("migration_chunk = 8").size(),
                   "migration_chunk = 0");
  EXPECT_EQ(
      federation_from_config(util::Config::parse(isolated)).migration_chunk,
      0u);
}

// --- runs: conservation, migration policies, determinism ---------------

FederationConfig base_config() {
  return federation_from_config(util::Config::parse(kBaseIni));
}

void expect_conserved(const FederationResult& r, std::size_t total) {
  EXPECT_EQ(r.tasks_completed, total);
  std::size_t routed = 0;
  for (const ClusterResult& c : r.clusters) {
    // Per-cluster flow balance: everything a cluster completed either
    // was routed to it or migrated in, minus what it pushed away.
    EXPECT_EQ(c.sim.tasks_completed,
              c.tasks_routed + c.migrated_in - c.migrated_out)
        << "cluster " << c.name;
    routed += c.tasks_routed;
  }
  EXPECT_EQ(routed, total);
}

TEST(FederationRunTest, ThresholdMigrationConservesTasks) {
  const auto cfg = base_config();
  const FederationResult r = run_federation(cfg, 0);
  expect_conserved(r, cfg.workload.count);
  EXPECT_GT(r.migrations, 0u);
  EXPECT_GT(r.link_busy_seconds, 0.0);
  EXPECT_GT(r.makespan, 0.0);
}

TEST(FederationRunTest, StealMigrationConservesTasks) {
  auto cfg = base_config();
  cfg.migration = MigrationKind::kSteal;
  cfg.router = RouterKind::kWeighted;
  cfg.clusters[0].weight = 20.0;  // overload edge; core/burst will steal
  cfg.clusters[1].cluster.rate_lo = 80.0;
  cfg.clusters[1].cluster.rate_hi = 160.0;
  const FederationResult r = run_federation(cfg, 0);
  expect_conserved(r, cfg.workload.count);
  EXPECT_GT(r.migrations, 0u);
  EXPECT_GT(r.clusters[0].migrated_out, 0u);
}

TEST(FederationRunTest, BroadcastMigrationConservesTasks) {
  auto cfg = base_config();
  cfg.migration = MigrationKind::kBroadcast;
  cfg.router = RouterKind::kWeighted;
  cfg.clusters[0].weight = 10.0;
  const FederationResult r = run_federation(cfg, 0);
  expect_conserved(r, cfg.workload.count);
  EXPECT_GT(r.migrations, 0u);
}

TEST(FederationRunTest, IsolatedClustersNeverMigrate) {
  auto cfg = base_config();
  cfg.topology = Topology(3);  // custom topology with zero links
  const FederationResult r = run_federation(cfg, 0);
  expect_conserved(r, cfg.workload.count);
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_DOUBLE_EQ(r.link_busy_seconds, 0.0);
}

TEST(FederationRunTest, HashRouterSplitsDeterministically) {
  auto cfg = base_config();
  cfg.router = RouterKind::kHash;
  cfg.migration = MigrationKind::kNone;
  cfg.topology = Topology::full_mesh(3);
  const FederationResult a = run_federation(cfg, 0);
  const FederationResult b = run_federation(cfg, 0);
  expect_conserved(a, cfg.workload.count);
  for (std::size_t k = 0; k < a.clusters.size(); ++k) {
    EXPECT_GT(a.clusters[k].tasks_routed, 0u);
    EXPECT_EQ(a.clusters[k].tasks_routed, b.clusters[k].tasks_routed);
  }
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(FederationRunTest, SerialAndParallelReplicationsBitIdentical) {
  const auto cfg = base_config();
  const auto serial = run_federation_replications(cfg, /*parallel=*/false);
  const auto pooled = run_federation_replications(cfg, /*parallel=*/true);
  ASSERT_EQ(serial.size(), cfg.replications);
  ASSERT_EQ(pooled.size(), cfg.replications);
  for (std::size_t rep = 0; rep < serial.size(); ++rep) {
    EXPECT_DOUBLE_EQ(serial[rep].makespan, pooled[rep].makespan);
    EXPECT_DOUBLE_EQ(serial[rep].mean_response_time,
                     pooled[rep].mean_response_time);
    EXPECT_EQ(serial[rep].migrations, pooled[rep].migrations);
    EXPECT_DOUBLE_EQ(serial[rep].link_busy_seconds,
                     pooled[rep].link_busy_seconds);
    ASSERT_EQ(serial[rep].clusters.size(), pooled[rep].clusters.size());
    for (std::size_t k = 0; k < serial[rep].clusters.size(); ++k) {
      EXPECT_DOUBLE_EQ(serial[rep].clusters[k].sim.makespan,
                       pooled[rep].clusters[k].sim.makespan);
      EXPECT_EQ(serial[rep].clusters[k].migrated_in,
                pooled[rep].clusters[k].migrated_in);
    }
  }
}

TEST(FederationRunTest, FlattenedResultConcatenatesProcessors) {
  const auto cfg = base_config();
  const FederationResult r = run_federation(cfg, 1);
  const sim::SimulationResult flat = r.as_simulation_result();
  EXPECT_EQ(flat.per_proc.size(), 4u + 6u + 4u);
  EXPECT_DOUBLE_EQ(flat.makespan, r.makespan);
  EXPECT_EQ(flat.tasks_completed, r.tasks_completed);
  double busy = 0.0;
  for (const ClusterResult& c : r.clusters) busy += c.sim.total_busy_time();
  EXPECT_DOUBLE_EQ(flat.total_busy_time(), busy);
}

TEST(FederationRunTest, PerClusterFailuresStillConserve) {
  auto cfg = base_config();
  sim::FailureConfig fc;
  fc.mean_uptime = 300.0;
  fc.mean_downtime = 50.0;
  fc.horizon = 1e6;
  cfg.clusters[1].failures = fc;
  const FederationResult r = run_federation(cfg, 0);
  expect_conserved(r, cfg.workload.count);
}

TEST(FederationRunTest, MismatchedTopologySizeThrows) {
  auto cfg = base_config();
  cfg.topology = Topology::full_mesh(2);
  EXPECT_THROW(Federation(cfg, 0), std::invalid_argument);
}

// --- golden values -----------------------------------------------------

// configs/federation.ini at 600 tasks, replication 0, with the burst
// cluster's outages made frequent enough to requeue work. The doubles
// are hexfloats and compared bit-exactly: any change to the event
// order, the RNG streams, routing or migration shows up here.
struct FederationGolden {
  MigrationKind migration;
  double makespan;
  double mean_response;
  std::size_t migrations;
  double link_busy;
  struct {
    std::size_t invocations, completed, requeued;
  } clusters[3];
};

const FederationGolden kFederationGolden[] = {
    {MigrationKind::kThreshold, 0x1.517db47d4907dp+7, 0x1.aa07e9fdba414p+5,
     560, 0x1.ba70d8d33f01ep+7, {{1, 14, 0}, {481, 490, 0}, {103, 96, 69}}},
    {MigrationKind::kSteal, 0x1.4c5d3cb4f947dp+8, 0x1.8e26fc59e7d2p+6, 176,
     0x1.832a3c2def411p+5, {{4, 238, 0}, {178, 266, 0}, {27, 96, 72}}},
    {MigrationKind::kBroadcast, 0x1.517db47d4907dp+7, 0x1.95ce0a14ce404p+5,
     560, 0x1.ba70d8d33f01ep+7, {{41, 54, 0}, {481, 490, 0}, {55, 56, 27}}},
};

TEST(FederationGoldenTest, ShippedConfigResultsAreBitExact) {
  const auto path =
      std::filesystem::path(GASCHED_SOURCE_DIR) / "configs" / "federation.ini";
  FederationConfig cfg = federation_from_config(util::Config::load(path));
  cfg.workload.count = 600;
  ASSERT_EQ(cfg.clusters.size(), 3u);
  ASSERT_TRUE(cfg.clusters[2].failures.has_value());
  cfg.clusters[2].failures->mean_uptime = 60.0;
  cfg.clusters[2].failures->mean_downtime = 15.0;
  for (const FederationGolden& g : kFederationGolden) {
    SCOPED_TRACE(static_cast<int>(g.migration));
    cfg.migration = g.migration;
    const FederationResult r = run_federation(cfg, 0);
    EXPECT_EQ(r.makespan, g.makespan);
    EXPECT_EQ(r.mean_response_time, g.mean_response);
    EXPECT_EQ(r.migrations, g.migrations);
    EXPECT_EQ(r.link_busy_seconds, g.link_busy);
    ASSERT_EQ(r.clusters.size(), 3u);
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(r.clusters[k].sim.scheduler_invocations,
                g.clusters[k].invocations)
          << r.clusters[k].name;
      EXPECT_EQ(r.clusters[k].sim.tasks_completed, g.clusters[k].completed)
          << r.clusters[k].name;
      EXPECT_EQ(r.clusters[k].sim.tasks_requeued, g.clusters[k].requeued)
          << r.clusters[k].name;
    }
  }
}

}  // namespace
}  // namespace gasched::fed
