// Golden-trace regression tests (the ISSUE's tentpole lock-down).
//
// A fixed-seed two-day fleet replay is bit-deterministic (NFR2), so the
// order-insensitive digest of its full-detail trace is a constant: any
// behavioural drift anywhere in the stack — candidate generation,
// ranking, retry/backoff, commit/conflict handling, the NameNode load
// model — changes the digest and fails the golden comparison. The same
// digest must also be identical across shard counts and pool sizes,
// which pins the shard-parallel driver to the sequential reference.
//
// A second pin covers the north-star scenario: bench_sim_throughput's
// 2000-table fleet traced at kFull, the repository's headline "same
// behaviour" check for performance work. Its sharded replay must also
// equal the sequential one metric for metric.
//
// When a change *intentionally* alters behaviour, regenerate the goldens
// (see CONTRIBUTING.md):
//
//   ./trace_golden_test --update-golden
//
// and commit the updated tests/golden/trace_digest.txt and
// tests/golden/north_star_digest.txt with the change that explains it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "common/thread_pool.h"
#include "common/units.h"
#include "obs/trace.h"
#include "sim/fleet_driver.h"
#include "sim/presets.h"

namespace autocomp::sim {
namespace {

bool g_update_golden = false;

bool TracingCompiledOut() {
  obs::TraceRecorder::Options options;
  options.level = obs::TraceLevel::kFull;
  return !obs::TraceRecorder(options).enabled(obs::TraceLevel::kPhases);
}

/// The pinned scenario. Every knob is explicit: the golden digest is a
/// contract, and silently inheriting a default that later changes would
/// make the test fail for the wrong reason.
FleetSimOptions GoldenOptions() {
  FleetSimOptions options;
  options.days = 2;
  options.seed = 7;
  options.fleet.num_databases = 6;
  options.fleet.tables_per_db = 8;
  options.fleet.seed = 77;
  StrategyPreset preset;
  preset.scope = ScopeStrategy::kTable;
  preset.k = 5;
  options.preset = preset;
  options.trace_level = obs::TraceLevel::kFull;
  return options;
}

/// The north-star scenario: bench_sim_throughput's BaseOptions() traced
/// at kFull, spelled out knob by knob so a bench edit cannot move the pin.
FleetSimOptions NorthStarOptions() {
  FleetSimOptions options;
  options.days = 1;
  options.seed = 7;
  options.fleet.num_databases = 40;
  options.fleet.tables_per_db = 50;
  options.fleet.seed = 77;
  options.fleet.size_mu = std::log(128.0 * kMiB);
  options.fleet.size_sigma = 1.2;
  options.env.namenode.rpc_capacity_per_hour = 2'000;
  options.driver.sample_interval = 4 * kHour;
  options.driver.retention_interval = kDay;
  options.preset.reset();  // the data plane alone, no control loop
  options.trace_level = obs::TraceLevel::kFull;
  return options;
}

/// Replays `options` as `shards` shards on a pool of `pool_workers`
/// threads (0 = no pool, shards advance inline). shards == 0 is the
/// sequential reference: one unsharded lane set on the calling thread.
FleetSimResult Replay(FleetSimOptions options, int shards, int pool_workers) {
  std::unique_ptr<ThreadPool> pool;
  if (pool_workers > 0) pool = std::make_unique<ThreadPool>(pool_workers);
  options.sharded = shards > 0;
  options.shards = shards > 0 ? shards : 1;
  options.pool = pool.get();
  FleetSimulation simulation(std::move(options));
  auto result = simulation.Run();
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? *std::move(result) : FleetSimResult{};
}

/// Sequential-reference digest, computed once per process.
const obs::TraceDigest& SeqDigest() {
  static const obs::TraceDigest digest =
      Replay(GoldenOptions(), /*shards=*/1, /*pool_workers=*/0).trace_digest;
  return digest;
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

/// A checked-in golden digest: its file, and for the file's comment
/// header the scenario it pins and the options function that builds it.
struct Golden {
  std::string path;
  std::string scenario;
  std::string options_fn;
};

const Golden kTraceGolden = {AUTOCOMP_GOLDEN_FILE,
                             "the fixed-seed two-day fleet replay",
                             "GoldenOptions"};
const Golden kNorthStarGolden = {AUTOCOMP_NORTH_STAR_GOLDEN_FILE,
                                 "the 2000-table one-day north-star replay",
                                 "NorthStarOptions"};

void WriteGolden(const Golden& golden, const std::string& digest_line) {
  std::ofstream out(golden.path, std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << golden.path;
  out << "# Golden trace digest for " << golden.scenario << "\n"
      << "# pinned in tests/trace_golden_test.cc (" << golden.options_fn
      << ").\n"
         "# Regenerate after an INTENTIONAL behaviour change with:\n"
         "#   ./trace_golden_test --update-golden\n"
      << digest_line << "\n";
}

/// Compares `digest` with `golden`, or rewrites it under --update-golden.
void ExpectGolden(const obs::TraceDigest& digest, const Golden& golden) {
  ASSERT_GT(digest.events, 0) << "golden run recorded no events";
  const std::string actual = digest.ToString();
  if (g_update_golden) {
    WriteGolden(golden, actual);
    std::printf("updated %s to %s\n", golden.path.c_str(), actual.c_str());
    return;
  }
  const std::string expected = ReadGolden(golden.path);
  ASSERT_FALSE(expected.empty())
      << "missing golden at " << golden.path
      << " — run ./trace_golden_test --update-golden to create it";
  EXPECT_EQ(actual, expected)
      << "the fixed-seed replay's trace drifted from the checked-in "
         "golden. If the behaviour change is intentional, regenerate "
         "with ./trace_golden_test --update-golden and commit the new "
         "digest alongside the change that explains it.";
}

TEST(TraceGoldenTest, DigestMatchesCheckedInGolden) {
  if (TracingCompiledOut()) GTEST_SKIP() << "tracing compiled out";
  ExpectGolden(SeqDigest(), kTraceGolden);
}

/// The north-star digest, pinned sequentially and as four shards on a
/// two-worker pool. The sharded replay must also reproduce the
/// sequential one exactly: merged metrics, events, files and opens.
TEST(TraceGoldenTest, NorthStarDigestMatchesCheckedInGolden) {
  if (TracingCompiledOut()) GTEST_SKIP() << "tracing compiled out";
  const FleetSimResult seq =
      Replay(NorthStarOptions(), /*shards=*/0, /*pool_workers=*/0);
  ExpectGolden(seq.trace_digest, kNorthStarGolden);
  if (g_update_golden) return;
  const FleetSimResult sharded =
      Replay(NorthStarOptions(), /*shards=*/4, /*pool_workers=*/2);
  ExpectGolden(sharded.trace_digest, kNorthStarGolden);
  ASSERT_GT(seq.events_executed, 0);
  std::string why;
  EXPECT_TRUE(seq.metrics.Equals(sharded.metrics, &why)) << why;
  EXPECT_EQ(sharded.metrics.ContentHash(), seq.metrics.ContentHash());
  EXPECT_EQ(sharded.events_executed, seq.events_executed);
  EXPECT_EQ(sharded.total_files, seq.total_files);
  EXPECT_EQ(sharded.open_calls, seq.open_calls);
}

/// Tracing is a pure observer: the golden scenario replayed untraced,
/// with recorders armed at kOff, and at kFull ends in the same metrics
/// and totals. Armed-off recorders record nothing.
TEST(TraceGoldenTest, TracingIsAPureObserver) {
  const auto replay = [](bool armed, obs::TraceLevel level) {
    FleetSimOptions options = GoldenOptions();
    // The preset's OODA pipeline records host wall-clock series, which
    // differ per run.
    options.driver.record_host_timings = false;
    options.trace_armed = armed;
    options.trace_level = level;
    FleetSimulation simulation(std::move(options));
    auto result = simulation.Run();
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? *std::move(result) : FleetSimResult{};
  };
  const FleetSimResult untraced = replay(false, obs::TraceLevel::kOff);
  const FleetSimResult armed_off = replay(true, obs::TraceLevel::kOff);
  const FleetSimResult full = replay(false, obs::TraceLevel::kFull);
  ASSERT_GT(untraced.events_executed, 0);
  for (const FleetSimResult* traced : {&armed_off, &full}) {
    std::string why;
    EXPECT_TRUE(untraced.metrics.Equals(traced->metrics, &why)) << why;
    EXPECT_EQ(traced->metrics.ContentHash(), untraced.metrics.ContentHash());
    EXPECT_EQ(traced->total_files, untraced.total_files);
    EXPECT_EQ(traced->events_executed, untraced.events_executed);
    EXPECT_EQ(traced->open_calls, untraced.open_calls);
  }
  EXPECT_EQ(armed_off.trace_digest.events, 0);
  if (!TracingCompiledOut()) {
    EXPECT_GT(full.trace_digest.events, 0);
  }
}

/// NFR2 lock-down: the digest is a pure function of the scenario, never
/// of how the fleet was scheduled — any shard count, any pool size.
TEST(TraceGoldenTest, DigestInvariantAcrossShardsAndPools) {
  if (TracingCompiledOut()) GTEST_SKIP() << "tracing compiled out";
  const obs::TraceDigest& seq = SeqDigest();
  ASSERT_GT(seq.events, 0);
  const struct {
    int shards;
    int pool_workers;
  } configs[] = {{1, 2}, {4, 0}, {4, 2}, {8, 4}};
  for (const auto& config : configs) {
    const obs::TraceDigest digest =
        Replay(GoldenOptions(), config.shards, config.pool_workers)
            .trace_digest;
    EXPECT_EQ(digest, seq)
        << "digest diverged at shards=" << config.shards
        << " pool=" << config.pool_workers << ": " << digest.ToString()
        << " vs sequential " << seq.ToString();
  }
}

}  // namespace
}  // namespace autocomp::sim

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      autocomp::sim::g_update_golden = true;
    }
  }
  return RUN_ALL_TESTS();
}
