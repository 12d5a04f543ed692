// Differential lock-down for the composable policy decomposition
// (core/policy.h): the pipeline assembled from policy primitives under
// the DEFAULT PolicySpec must reproduce the pre-decomposition pipeline
// bit for bit — same PipelineRunReports, same metrics (per series, per
// hour, per sample, Equals + ContentHash), same golden trace digest —
// across seeds, shard counts, and pool sizes. A non-default policy must
// conversely CHANGE behaviour (the axes are wired, not decorative).

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/policy.h"
#include "engine/write_planner.h"
#include "sim/driver.h"
#include "sim/fleet_driver.h"
#include "sim/metrics.h"
#include "sim/presets.h"
#include "workload/cab.h"
#include "workload/tpch.h"

namespace autocomp::sim {
namespace {

// --------------------------------------------------------- single-env

/// Two identical single-table environments: one service built the
/// legacy way (no policy), one through the policy path with Default().
/// Every field of every run report must match.
void ExpectReportsEqual(const core::PipelineRunReport& a,
                        const core::PipelineRunReport& b) {
  EXPECT_EQ(a.started_at, b.started_at);
  EXPECT_EQ(a.candidates_generated, b.candidates_generated);
  EXPECT_EQ(a.dropped_pre_orient, b.dropped_pre_orient);
  EXPECT_EQ(a.dropped_post_orient, b.dropped_post_orient);
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].candidate().id(), b.ranked[i].candidate().id());
    EXPECT_EQ(a.ranked[i].score, b.ranked[i].score);
    EXPECT_EQ(a.ranked[i].traited.traits, b.ranked[i].traited.traits);
  }
  ASSERT_EQ(a.selected.size(), b.selected.size());
  for (size_t i = 0; i < a.selected.size(); ++i) {
    EXPECT_EQ(a.selected[i].candidate().id(), b.selected[i].candidate().id());
    EXPECT_EQ(a.selected[i].score, b.selected[i].score);
  }
  ASSERT_EQ(a.executed.size(), b.executed.size());
  for (size_t i = 0; i < a.executed.size(); ++i) {
    const engine::CompactionResult& ra = a.executed[i].result;
    const engine::CompactionResult& rb = b.executed[i].result;
    EXPECT_EQ(a.executed[i].candidate.id(), b.executed[i].candidate.id());
    EXPECT_EQ(ra.committed, rb.committed);
    EXPECT_EQ(ra.files_rewritten, rb.files_rewritten);
    EXPECT_EQ(ra.files_produced, rb.files_produced);
    EXPECT_EQ(ra.bytes_rewritten, rb.bytes_rewritten);
    EXPECT_EQ(ra.bytes_produced, rb.bytes_produced);
    EXPECT_EQ(ra.gb_hours, rb.gb_hours);
    EXPECT_EQ(ra.end_time, rb.end_time);
  }
  EXPECT_EQ(a.feedback.size(), b.feedback.size());
}

core::PipelineRunReport RunSingleEnv(const StrategyPreset& preset) {
  SimEnvironment env;
  EXPECT_TRUE(workload::SetupTpchDatabase(&env.catalog(), &env.query_engine(),
                                          "db", kGiB,
                                          engine::UntunedUserJobProfile(), 0)
                  .ok());
  auto service = MakeMoopService(&env, preset);
  env.clock().AdvanceTo(kHour);
  auto report = service->RunNow();
  EXPECT_TRUE(report.ok()) << report.status();
  return report.ok() ? std::move(*report) : core::PipelineRunReport{};
}

TEST(PolicyDiffTest, DefaultSpecReportMatchesLegacyPipeline) {
  StrategyPreset legacy;
  legacy.scope = ScopeStrategy::kTable;
  legacy.k = 10;

  StrategyPreset decomposed = legacy;
  decomposed.policy = core::PolicySpec::Default();

  const core::PipelineRunReport a = RunSingleEnv(legacy);
  const core::PipelineRunReport b = RunSingleEnv(decomposed);
  ASSERT_GT(a.candidates_generated, 0);
  EXPECT_GT(a.executed.size(), 0u);
  ExpectReportsEqual(a, b);
}

// ------------------------------------------------------------- fleet

FleetSimOptions PolicyFleet(uint64_t seed) {
  FleetSimOptions options;
  options.days = 2;
  options.seed = seed;
  options.fleet.num_databases = 6;
  options.fleet.tables_per_db = 3;
  options.fleet.new_tables_per_day = 2;
  options.fleet.seed = 77;
  options.env.namenode.rpc_capacity_per_hour = 200;
  options.driver.sample_interval = 4 * kHour;
  options.driver.retention_interval = kDay;
  // The pipeline_*_ms host-wall-clock profiling series are the one
  // legitimately nondeterministic metric family; bit-identity is
  // asserted over everything else.
  options.driver.record_host_timings = false;
  StrategyPreset preset;
  preset.scope = ScopeStrategy::kTable;
  preset.k = 5;
  options.preset = preset;
  return options;
}

FleetSimResult RunFleet(FleetSimOptions options) {
  FleetSimulation simulation(std::move(options));
  auto result = simulation.Run();
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(*result) : FleetSimResult{};
}

TEST(PolicyDiffTest, DefaultSpecBitIdenticalAcrossSeedsShardsAndPools) {
  for (const uint64_t seed : {7ull, 99ull}) {
    FleetSimOptions legacy_options = PolicyFleet(seed);
    legacy_options.sharded = false;
    const FleetSimResult legacy = RunFleet(std::move(legacy_options));
    ASSERT_GT(legacy.events_executed, 0);
    const uint64_t legacy_hash = legacy.metrics.ContentHash();
    for (const int shards : {1, 4, 8}) {
      for (const int workers : {0, 2, 4}) {
        std::unique_ptr<ThreadPool> pool;
        if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
        FleetSimOptions options = PolicyFleet(seed);
        options.preset->policy = core::PolicySpec::Default();
        options.sharded = true;
        options.shards = shards;
        options.pool = pool.get();
        const FleetSimResult decomposed = RunFleet(std::move(options));
        std::string why;
        EXPECT_TRUE(legacy.metrics.Equals(decomposed.metrics, &why))
            << "seed=" << seed << " shards=" << shards
            << " workers=" << workers << ": " << why;
        EXPECT_EQ(legacy_hash, decomposed.metrics.ContentHash());
        EXPECT_EQ(legacy.events_executed, decomposed.events_executed);
        EXPECT_EQ(legacy.total_files, decomposed.total_files);
      }
    }
  }
}

/// A two-hour, two-database deferred CAB run under `policy`: a plain
/// EventDriver (no fleet driver) acting on the timeline for a preset
/// service that only decides. The databases are CLI-sized (25 GiB), so
/// a partition holds more than one target-size file and the movements
/// rewrite different file sets.
uint64_t DeferredCabHash(const std::string& policy) {
  SimEnvironment env;
  workload::CabOptions cab_options;
  cab_options.num_databases = 2;
  cab_options.duration = 2 * kHour;
  workload::CabWorkload cab(cab_options);
  for (const std::string& db : cab.DatabaseNames()) {
    EXPECT_TRUE(workload::SetupTpchDatabase(
                    &env.catalog(), &env.query_engine(), db, 25 * kGiB,
                    engine::UntunedUserJobProfile(), 0)
                    .ok());
  }
  auto spec = core::PolicySpec::Parse(policy);
  EXPECT_TRUE(spec.ok()) << spec.status();
  StrategyPreset preset;
  preset.scope = ScopeStrategy::kTable;
  preset.k = 50;
  preset.deferred_act = true;
  preset.policy = spec.ok() ? *spec : core::PolicySpec::Default();
  auto service = MakeMoopService(&env, preset);
  DriverOptions driver_options;
  driver_options.deferred_compaction = true;
  driver_options.record_host_timings = false;
  MetricsRecorder metrics;
  EventDriver driver(&env, &metrics, driver_options);
  driver.AttachService(service.get());
  const Status run = driver.Run(cab.GenerateEvents(), 2 * kHour);
  EXPECT_TRUE(run.ok()) << run;
  EXPECT_GT(env.compaction_runner().total_committed(), 0)
      << "no deferred compaction committed; the comparison is vacuous";
  return metrics.ContentHash();
}

TEST(PolicyDiffTest, NonDefaultPolicyActuallyChangesBehavior) {
  // Guard against silently-unwired axes: a full-rewrite policy must
  // diverge from the default partial rewrite on the same fleet.
  FleetSimOptions no_service_options = PolicyFleet(7);
  no_service_options.sharded = false;
  no_service_options.preset.reset();
  const FleetSimResult no_service = RunFleet(std::move(no_service_options));

  FleetSimOptions default_options = PolicyFleet(7);
  default_options.sharded = false;
  const FleetSimResult with_default = RunFleet(std::move(default_options));
  ASSERT_LT(with_default.total_files, no_service.total_files)
      << "the service never compacted; the comparison would be vacuous";

  FleetSimOptions full_options = PolicyFleet(7);
  full_options.sharded = false;
  auto spec = core::PolicySpec::Parse(
      "trigger=periodic;granularity=table;movement=full;picker=moop");
  ASSERT_TRUE(spec.ok()) << spec.status();
  full_options.preset->policy = *spec;
  const FleetSimResult with_full = RunFleet(std::move(full_options));
  EXPECT_NE(with_default.metrics.ContentHash(),
            with_full.metrics.ContentHash())
      << "movement=full produced byte-identical metrics — the policy "
         "axes are not reaching the execution path";

  // Deferred act outside the fleet driver: the plain EventDriver builds
  // its requests with its service's movement.
  EXPECT_NE(
      DeferredCabHash(
          "trigger=periodic;granularity=table;movement=full;picker=moop"),
      DeferredCabHash(
          "trigger=periodic;granularity=table;movement=merge;picker=moop"))
      << "movement=full and movement=merge produced byte-identical "
         "deferred metrics — the movement axis is not reaching the "
         "deferred act path";
}

// ------------------------------------------------------------- golden

bool TracingCompiledOut() {
  obs::TraceRecorder::Options options;
  options.level = obs::TraceLevel::kFull;
  return !obs::TraceRecorder(options).enabled(obs::TraceLevel::kPhases);
}

/// First non-comment, non-blank line of the golden file.
std::string ReadGolden(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r' ||
                             line.back() == ' ')) {
      line.pop_back();
    }
    if (!line.empty() && line[0] != '#') return line;
  }
  return "";
}

TEST(PolicyDiffTest, DefaultSpecPreservesGoldenTraceDigest) {
  if (TracingCompiledOut()) GTEST_SKIP() << "tracing compiled out";
  // The exact scenario pinned in tests/trace_golden_test.cc
  // (GoldenOptions), with the preset routed through the policy path.
  FleetSimOptions options;
  options.days = 2;
  options.seed = 7;
  options.fleet.num_databases = 6;
  options.fleet.tables_per_db = 8;
  options.fleet.seed = 77;
  StrategyPreset preset;
  preset.scope = ScopeStrategy::kTable;
  preset.k = 5;
  preset.policy = core::PolicySpec::Default();
  options.preset = preset;
  options.trace_level = obs::TraceLevel::kFull;
  options.sharded = true;
  options.shards = 1;
  const FleetSimResult result = RunFleet(std::move(options));
  ASSERT_GT(result.trace_digest.events, 0);
  const std::string expected = ReadGolden(AUTOCOMP_GOLDEN_FILE);
  ASSERT_FALSE(expected.empty()) << "missing golden " << AUTOCOMP_GOLDEN_FILE;
  EXPECT_EQ(result.trace_digest.ToString(), expected)
      << "the Default() policy spec changed the golden trace — the "
         "decomposition is not byte-transparent";
}

}  // namespace
}  // namespace autocomp::sim
