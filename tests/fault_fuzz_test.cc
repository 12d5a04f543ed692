// Fault-injection fuzz tests: random seeded fault profiles and schedules
// replayed through the shard-parallel fleet simulation with the
// invariant checker armed after every epoch. The bar is threefold:
//  * no fault mix may break a safety invariant (live-file loss or
//    duplication, quota/object-accounting drift, lineage cycles);
//  * a replay with the same seeds is bit-identical, metric for metric;
//  * sequential and sharded runs agree under faults (NFR2 extends to the
//    injected-failure paths, not just the happy path).
// Labeled "concurrency" as well so TSan builds cover injector arming
// from parallel shard advancement.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "fault/fault_injector.h"
#include "sim/fleet_driver.h"
#include "sim/metrics.h"

namespace autocomp::sim {
namespace {

FleetSimOptions SmallFaultyFleet(uint64_t seed) {
  FleetSimOptions options;
  options.days = 2;
  options.seed = seed;
  options.fleet.num_databases = 6;
  options.fleet.tables_per_db = 3;
  options.fleet.new_tables_per_day = 2;
  // Low NameNode capacity so organic epoch-load timeouts mix with the
  // injected ones.
  options.env.namenode.rpc_capacity_per_hour = 200;
  options.driver.sample_interval = 4 * kHour;
  options.driver.retention_interval = kDay;
  options.check_invariants = true;
  options.env.fault.enabled = true;
  return options;
}

/// Draws a random fault profile from `rng` — every site armed, with
/// probabilities low enough that most operations still succeed (the
/// workload-failure paths are exercised, not saturated).
fault::FaultProfile RandomProfile(std::mt19937_64* rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  fault::FaultProfile profile;
  profile.sites[fault::kSiteStorageOpen] = {
      {0.08 * u(*rng), fault::FaultKind::kTimeout}};
  profile.sites[fault::kSiteStorageCreate] = {
      {0.004 * u(*rng), fault::FaultKind::kQuotaExceeded}};
  profile.sites[fault::kSiteLstCommit] = {
      {0.10 * u(*rng), fault::FaultKind::kCasRaceConflict},
      {0.01 * u(*rng), fault::FaultKind::kValidationAbort},
      {0.01 * u(*rng), fault::FaultKind::kDisjointRewriteAbort}};
  profile.sites[fault::kSiteEngineRunner] = {
      {0.05 * u(*rng), fault::FaultKind::kRunnerCrash}};
  profile.sites[fault::kSiteCatalogCommitEvent] = {
      {0.02 * u(*rng), fault::FaultKind::kDropEvent},
      {0.02 * u(*rng), fault::FaultKind::kDuplicateEvent}};
  return profile;
}

FleetSimResult RunOrDie(FleetSimOptions options) {
  FleetSimulation simulation(std::move(options));
  auto result = simulation.Run();
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return {};
  return std::move(*result);
}

TEST(FaultFuzzTest, RandomProfilesHoldInvariantsAndReplayBitIdentical) {
  for (const uint64_t fuzz_seed : {11ull, 29ull}) {
    std::mt19937_64 rng(fuzz_seed);
    FleetSimOptions options = SmallFaultyFleet(7);
    options.sharded = false;
    options.env.fault.seed = fuzz_seed * 1000003;
    options.env.fault.profile = RandomProfile(&rng);

    FleetSimOptions replay = options;  // identical seeds and profile
    const FleetSimResult first = RunOrDie(std::move(options));
    const FleetSimResult again = RunOrDie(std::move(replay));
    EXPECT_GT(first.faults_injected, 0)
        << "fuzz_seed " << fuzz_seed << " drew a vacuous profile";
    EXPECT_EQ(first.faults_injected, again.faults_injected);
    EXPECT_EQ(first.events_executed, again.events_executed);
    EXPECT_EQ(first.total_files, again.total_files);
    std::string why;
    EXPECT_TRUE(first.metrics.Equals(again.metrics, &why))
        << "replay diverged (fuzz_seed " << fuzz_seed << "): " << why;
  }
}

TEST(FaultFuzzTest, InjectionsAreBitIdenticalAcrossShardsAndPools) {
  std::mt19937_64 rng(4242);
  const fault::FaultProfile profile = RandomProfile(&rng);

  FleetSimOptions seq_options = SmallFaultyFleet(7);
  seq_options.sharded = false;
  seq_options.env.fault.seed = 77;
  seq_options.env.fault.profile = profile;
  const FleetSimResult seq = RunOrDie(std::move(seq_options));
  ASSERT_GT(seq.faults_injected, 0);

  for (const int shards : {1, 4, 8}) {
    for (const int workers : {2, 4}) {
      ThreadPool pool(workers);
      FleetSimOptions options = SmallFaultyFleet(7);
      options.sharded = true;
      options.shards = shards;
      options.pool = &pool;
      options.env.fault.seed = 77;
      options.env.fault.profile = profile;
      const FleetSimResult result = RunOrDie(std::move(options));
      EXPECT_EQ(seq.faults_injected, result.faults_injected)
          << "shards=" << shards << " workers=" << workers;
      EXPECT_EQ(seq.total_files, result.total_files);
      std::string why;
      EXPECT_TRUE(seq.metrics.Equals(result.metrics, &why))
          << "shards=" << shards << " workers=" << workers << ": " << why;
    }
  }
}

TEST(FaultFuzzTest, DifferentFaultSeedsInjectDifferently) {
  std::mt19937_64 rng(99);
  const fault::FaultProfile profile = RandomProfile(&rng);
  int64_t injected_a = 0;
  int64_t injected_b = 0;
  for (int round = 0; round < 2; ++round) {
    FleetSimOptions options = SmallFaultyFleet(7);
    options.sharded = false;
    options.env.fault.seed = round == 0 ? 1 : 2;
    options.env.fault.profile = profile;
    const FleetSimResult result = RunOrDie(std::move(options));
    (round == 0 ? injected_a : injected_b) = result.faults_injected;
  }
  // Not a hard law (two seeds could tie), but with hundreds of draws a
  // collision would itself be suspicious — treat as a regression signal.
  EXPECT_NE(injected_a, injected_b);
}

TEST(FaultFuzzTest, RandomSchedulesHoldInvariants) {
  // Scripted (non-probabilistic) injections: random (site, hit, kind)
  // tuples, including terminal kinds that force abandonment paths.
  const struct {
    const char* site;
    fault::FaultKind kind;
  } kMenu[] = {
      {fault::kSiteStorageOpen, fault::FaultKind::kTimeout},
      {fault::kSiteStorageCreate, fault::FaultKind::kQuotaExceeded},
      {fault::kSiteLstCommit, fault::FaultKind::kCasRaceConflict},
      {fault::kSiteLstCommit, fault::FaultKind::kValidationAbort},
      {fault::kSiteEngineRunner, fault::FaultKind::kRunnerCrash},
      {fault::kSiteCatalogCommitEvent, fault::FaultKind::kDropEvent},
      {fault::kSiteCatalogCommitEvent, fault::FaultKind::kDuplicateEvent},
  };
  for (const uint64_t fuzz_seed : {3ull, 17ull}) {
    std::mt19937_64 rng(fuzz_seed);
    std::uniform_int_distribution<int> pick(0, 6);
    std::uniform_int_distribution<uint64_t> hit(1, 200);
    FleetSimOptions options = SmallFaultyFleet(7);
    options.sharded = false;
    for (int i = 0; i < 12; ++i) {
      const auto& entry = kMenu[pick(rng)];
      options.env.fault.schedule.Add(entry.site, hit(rng), entry.kind);
    }
    const FleetSimResult result = RunOrDie(std::move(options));
    EXPECT_GT(result.events_executed, 0);
  }
}

TEST(FaultFuzzTest, ArmedButEmptyInjectorMatchesDisabledRun) {
  // The zero-fault parity contract: an enabled injector with no profile
  // and no schedule must not perturb the simulation in any observable
  // way. Its cost is checked exactly, not timed:
  // IdleHookTest.EmptyInjectorCountsNoHit holds it to zero hits at every
  // site.
  FleetSimOptions off = SmallFaultyFleet(7);
  off.sharded = false;
  off.env.fault.enabled = false;
  const FleetSimResult disabled = RunOrDie(std::move(off));

  FleetSimOptions armed = SmallFaultyFleet(7);
  armed.sharded = false;  // fault.enabled = true, empty profile/schedule
  const FleetSimResult idle = RunOrDie(std::move(armed));

  EXPECT_EQ(idle.faults_injected, 0);
  EXPECT_EQ(disabled.total_files, idle.total_files);
  EXPECT_EQ(disabled.events_executed, idle.events_executed);
  std::string why;
  EXPECT_TRUE(disabled.metrics.Equals(idle.metrics, &why)) << why;
}

}  // namespace
}  // namespace autocomp::sim
