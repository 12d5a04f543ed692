// Property battery for the PolicySpec grammar and the policy-assembled
// pipeline:
//  * Parse(ToString(s)) == s for every enumerated spec and for a few
//    hundred randomized valid specs (canonicalization is lossless);
//  * malformed strings fail with the documented structured reason, never
//    a crash or a silently-default spec;
//  * every valid spec (the full pinned-table cross-product) survives a
//    fault-injected fleet replay with the invariant checker armed — no
//    policy combination can corrupt table state, even under chaos;
//  * the movement axis has its documented semantics (full rewrites move
//    at least as much as partial; merge produces at most as many files);
//  * per-table catalog overrides reach the compaction request, and
//    unparsable catalog entries are ignored rather than fatal.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/control_plane.h"
#include "core/act.h"
#include "core/policy.h"
#include "engine/compaction_runner.h"
#include "engine/write_planner.h"
#include "fault/fault_injector.h"
#include "sim/driver.h"
#include "sim/fleet_driver.h"
#include "sim/presets.h"
#include "workload/tpch.h"

namespace autocomp::sim {
namespace {

using core::GranularityAxis;
using core::PickerAxis;
using core::PolicySpec;
using core::TriggerAxis;

// ------------------------------------------------------------ grammar

TEST(PolicyPropertyTest, EnumerationCountsAndUniqueness) {
  const std::vector<PolicySpec> pinned = core::EnumerateValidSpecs();
  // 5 triggers x (3 movements x 3 movement-agnostic pickers + 1
  // merge-only online-merge picker) = 50.
  EXPECT_EQ(pinned.size(), 50u);
  core::EnumerateOptions all;
  all.all_granularities = true;
  EXPECT_EQ(core::EnumerateValidSpecs(all).size(), 150u);

  std::set<std::string> keys;
  for (const PolicySpec& spec : pinned) {
    EXPECT_TRUE(spec.Validate().ok()) << spec.ToString();
    EXPECT_TRUE(keys.insert(spec.ToString()).second)
        << "duplicate canonical string " << spec.ToString();
  }
}

TEST(PolicyPropertyTest, RoundTripEveryEnumeratedSpec) {
  core::EnumerateOptions all;
  all.all_granularities = true;
  for (const PolicySpec& spec : core::EnumerateValidSpecs(all)) {
    const std::string text = spec.ToString();
    auto parsed = PolicySpec::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status();
    EXPECT_EQ(*parsed, spec) << text;
    EXPECT_EQ(parsed->ToString(), text);
  }
}

TEST(PolicyPropertyTest, RoundTripRandomizedSpecs) {
  std::mt19937_64 rng(0xfeedbeefULL);
  std::uniform_int_distribution<int> trigger_pick(0, 4);
  std::uniform_int_distribution<int> granularity_pick(0, 2);
  std::uniform_int_distribution<int> movement_pick(0, 2);
  std::uniform_int_distribution<int> picker_pick(0, 3);
  // Quarters are exact in %.12g and through strtod, so the string round
  // trip is value-exact by construction.
  std::uniform_int_distribution<int> quarters(4, 192);
  std::uniform_int_distribution<int> counts(2, 64);
  for (int i = 0; i < 256; ++i) {
    PolicySpec spec;
    spec.trigger = static_cast<TriggerAxis>(trigger_pick(rng));
    switch (spec.trigger) {
      case TriggerAxis::kPeriodic:
        spec.trigger_param = 0;
        break;
      case TriggerAxis::kFileCount:
        spec.trigger_param = counts(rng);
        break;
      case TriggerAxis::kSizeRatio:
      case TriggerAxis::kStaleness:
      case TriggerAxis::kDeadline:
        spec.trigger_param = quarters(rng) / 4.0 + 1.0;
        break;
    }
    spec.granularity = static_cast<GranularityAxis>(granularity_pick(rng));
    spec.movement = static_cast<engine::RewriteMovement>(movement_pick(rng));
    spec.picker = static_cast<PickerAxis>(picker_pick(rng));
    if (spec.picker == PickerAxis::kOnlineMerge) {
      spec.movement = engine::RewriteMovement::kMerge;
      spec.picker_param = counts(rng);
    } else {
      spec.picker_param = 0;
    }
    ASSERT_TRUE(spec.Validate().ok()) << spec.ToString();

    const std::string text = spec.ToString();
    auto parsed = PolicySpec::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status();
    EXPECT_EQ(*parsed, spec) << text;
  }
}

TEST(PolicyPropertyTest, ParseAcceptsAnyKeyOrder) {
  auto canonical = PolicySpec::Parse(
      "trigger=file-count:8;granularity=partition;movement=merge;"
      "picker=online-merge:3");
  ASSERT_TRUE(canonical.ok()) << canonical.status();
  for (const std::string& shuffled : {
           std::string("picker=online-merge:3;movement=merge;"
                       "granularity=partition;trigger=file-count:8"),
           std::string("movement=merge;trigger=file-count:8;"
                       "picker=online-merge:3;granularity=partition"),
           std::string(";granularity=partition;;movement=merge;"
                       "trigger=file-count:8;picker=online-merge:3;"),
       }) {
    auto parsed = PolicySpec::Parse(shuffled);
    ASSERT_TRUE(parsed.ok()) << shuffled << ": " << parsed.status();
    EXPECT_EQ(*parsed, *canonical) << shuffled;
  }
}

TEST(PolicyPropertyTest, InvalidSpecsYieldStructuredErrors) {
  struct Case {
    const char* text;
    const char* axis;
    const char* reason;
  };
  const Case kCases[] = {
      {"granularity=table;movement=partial;picker=moop",  //
       "trigger", "missing-key"},
      {"trigger=periodic;movement=partial;picker=moop",  //
       "granularity", "missing-key"},
      {"trigger=periodic;granularity=table;picker=moop",  //
       "movement", "missing-key"},
      {"trigger=periodic;granularity=table;movement=partial",  //
       "picker", "missing-key"},
      {"trigger=periodic;trigger=periodic;granularity=table;"
       "movement=partial;picker=moop",
       "trigger", "duplicate-key"},
      {"trigger=bogus;granularity=table;movement=partial;picker=moop",
       "trigger", "unknown-value"},
      {"trigger=periodic;granularity=table;movement=partial;picker=moop;"
       "color=red",
       "color", "unknown-key"},
      {"trigger=file-count:abc;granularity=table;movement=partial;"
       "picker=moop",
       "trigger", "bad-param"},
      {"trigger=file-count:;granularity=table;movement=partial;picker=moop",
       "trigger", "bad-param"},
      {"trigger=file-count:1;granularity=table;movement=partial;picker=moop",
       "trigger", "param-out-of-range"},
      {"trigger=file-count:2.5;granularity=table;movement=partial;"
       "picker=moop",
       "trigger", "param-out-of-range"},
      {"trigger=size-ratio:1;granularity=table;movement=partial;picker=moop",
       "trigger", "param-out-of-range"},
      {"trigger=staleness:0;granularity=table;movement=partial;picker=moop",
       "trigger", "param-out-of-range"},
      {"trigger=periodic:5;granularity=table;movement=partial;picker=moop",
       "trigger", "param-out-of-range"},
      {"trigger=periodic;granularity=table:2;movement=partial;picker=moop",
       "granularity", "bad-param"},
      {"trigger=periodic;granularity=table;movement=partial;"
       "picker=online-merge",
       "picker", "invalid-combination"},
      {"trigger=periodic;granularity=table;movement=merge;"
       "picker=online-merge:1",
       "picker", "param-out-of-range"},
      {"trigger=periodic;granularity=table;movement=partial;picker=moop:3",
       "picker", "param-out-of-range"},
      {"nonsense", "", "unknown-key"},
  };
  for (const Case& c : kCases) {
    PolicySpec::ParseError error;
    auto parsed = PolicySpec::Parse(c.text, &error);
    ASSERT_FALSE(parsed.ok()) << c.text << " unexpectedly parsed";
    EXPECT_EQ(error.axis, c.axis) << c.text;
    EXPECT_EQ(error.reason, c.reason) << c.text;
  }
}

// ----------------------------------------------- catalog override path

TEST(PolicyPropertyTest, PerTableOverrideReachesRequest) {
  SimEnvironment env;
  catalog::TablePolicy policy;
  policy.compaction_policy =
      "trigger=periodic;granularity=table;movement=merge;picker=moop";
  env.control_plane().SetPolicy("db.t", policy);

  core::Candidate candidate;
  candidate.table = "db.t";
  const engine::CompactionRequest request = core::RequestFor(
      candidate, engine::RewriteMovement::kPartial, &env.control_plane());
  EXPECT_EQ(request.movement, engine::RewriteMovement::kMerge);
}

TEST(PolicyPropertyTest, UnparsableOverrideIsIgnoredNotFatal) {
  SimEnvironment env;
  catalog::TablePolicy policy;
  policy.compaction_policy = "movement=warp-drive";
  env.control_plane().SetPolicy("db.t", policy);

  core::Candidate candidate;
  candidate.table = "db.t";
  const engine::CompactionRequest request = core::RequestFor(
      candidate, engine::RewriteMovement::kFull, &env.control_plane());
  // Falls back to the service's fleet-wide movement.
  EXPECT_EQ(request.movement, engine::RewriteMovement::kFull);
}

// ------------------------------------------------- movement semantics

struct MovementTotals {
  int64_t files_rewritten = 0;
  int64_t files_produced = 0;
  int64_t commits = 0;
};

MovementTotals RunWithMovement(engine::RewriteMovement movement) {
  SimEnvironment env;
  EXPECT_TRUE(workload::SetupTpchDatabase(&env.catalog(), &env.query_engine(),
                                          "db", kGiB,
                                          engine::UntunedUserJobProfile(), 0)
                  .ok());
  StrategyPreset preset;
  preset.scope = ScopeStrategy::kTable;
  preset.k = 10;
  PolicySpec spec;
  spec.movement = movement;
  preset.policy = spec;
  auto service = MakeMoopService(&env, preset);
  env.clock().AdvanceTo(kHour);
  auto report = service->RunNow();
  EXPECT_TRUE(report.ok()) << report.status();
  MovementTotals totals;
  if (!report.ok()) return totals;
  for (const auto& unit : report->executed) {
    if (!unit.result.committed) continue;
    ++totals.commits;
    totals.files_rewritten += unit.result.files_rewritten;
    totals.files_produced += unit.result.files_produced;
  }
  return totals;
}

TEST(PolicyPropertyTest, MovementAxisHasDocumentedSemantics) {
  const MovementTotals partial =
      RunWithMovement(engine::RewriteMovement::kPartial);
  const MovementTotals full = RunWithMovement(engine::RewriteMovement::kFull);
  const MovementTotals merge =
      RunWithMovement(engine::RewriteMovement::kMerge);
  ASSERT_GT(partial.commits, 0);
  ASSERT_GT(full.commits, 0);
  ASSERT_GT(merge.commits, 0);
  // Full rewrites pull every live file into the rewrite, so they can
  // never move fewer files than the small-file-only partial rewrite.
  EXPECT_GE(full.files_rewritten, partial.files_rewritten);
  // Merge coalesces each picked set into single bins, so it cannot
  // produce more output files than the size-binned partial rewrite.
  EXPECT_LE(merge.files_produced, partial.files_produced);
}

// ------------------------------------- every spec under chaos faults

TEST(PolicyPropertyTest, EveryValidSpecSurvivesFaultyReplay) {
  auto profile = fault::FaultProfileByName("chaos");
  ASSERT_TRUE(profile.ok()) << profile.status();
  const std::vector<PolicySpec> specs = core::EnumerateValidSpecs();
  ASSERT_EQ(specs.size(), 50u);
  int64_t runs_with_faults = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    FleetSimOptions options;
    options.days = 1;
    options.seed = 7;
    options.fleet.num_databases = 2;
    options.fleet.tables_per_db = 2;
    options.fleet.seed = 77;
    options.driver.sample_interval = 4 * kHour;
    options.driver.retention_interval = kDay;
    options.check_invariants = true;
    options.env.fault.enabled = true;
    options.env.fault.seed = 0x5eedfa + i;
    options.env.fault.profile = *profile;
    StrategyPreset preset;
    preset.scope = ScopeStrategy::kTable;
    preset.k = 5;
    preset.policy = specs[i];
    options.preset = preset;
    FleetSimulation simulation(std::move(options));
    auto result = simulation.Run();
    ASSERT_TRUE(result.ok())
        << specs[i].ToString() << ": " << result.status();
    EXPECT_GT(result->events_executed, 0) << specs[i].ToString();
    if (result->faults_injected > 0) ++runs_with_faults;
  }
  // The chaos profile should actually bite in most runs; if it never
  // fires the test is vacuous.
  EXPECT_GT(runs_with_faults, 25);
}

}  // namespace
}  // namespace autocomp::sim
