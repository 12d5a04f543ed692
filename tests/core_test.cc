// Unit tests for src/core: candidates, generators, filters, traits,
// ranking/selection, act executors, the OODA pipeline, and triggers.

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/control_plane.h"
#include "common/clock.h"
#include "core/act.h"
#include "core/filters.h"
#include "core/observe.h"
#include "core/pipeline.h"
#include "core/ranking.h"
#include "core/stats_index.h"
#include "core/traits.h"
#include "core/triggers.h"
#include "engine/query_engine.h"
#include "storage/namenode.h"

namespace autocomp::core {
namespace {

// ------------------------------------------------------------- Candidates

TEST(CandidateTest, IdIsStableAndScoped) {
  Candidate table{"db.t", CandidateScope::kTable, std::nullopt, 0};
  EXPECT_EQ(table.id(), "db.t");
  Candidate partition{"db.t", CandidateScope::kPartition,
                      std::string("m=1995-01"), 0};
  EXPECT_EQ(partition.id(), "db.t/m=1995-01");
  Candidate snapshot{"db.t", CandidateScope::kSnapshot, std::nullopt, 42};
  EXPECT_EQ(snapshot.id(), "db.t@>42");
  EXPECT_FALSE(table == partition);
}

TEST(CandidateStatsTest, SmallFileAccounting) {
  CandidateStats stats;
  stats.target_file_size_bytes = 100;
  stats.file_sizes = {10, 50, 100, 150};
  stats.file_count = 4;
  EXPECT_EQ(stats.small_file_count(), 2);
  EXPECT_EQ(stats.small_file_bytes(), 60);
}

// --------------------------------------------------------- Shared fixture

ObservedCandidate MakeObserved(const std::string& table,
                               std::vector<int64_t> sizes,
                               int64_t target = 100) {
  ObservedCandidate oc;
  oc.candidate.table = table;
  oc.stats.target_file_size_bytes = target;
  oc.stats.file_sizes = sizes;
  oc.stats.file_count = static_cast<int64_t>(sizes.size());
  for (int64_t s : sizes) oc.stats.total_bytes += s;
  oc.stats.file_sizes_by_partition =
      std::make_shared<const PartitionSizes>(
          PartitionSizes{{"", std::move(sizes)}});
  return oc;
}

// ----------------------------------------------------------------- Traits

TEST(TraitsTest, FileCountReductionCountsSmallFiles) {
  FileCountReductionTrait trait;
  EXPECT_DOUBLE_EQ(trait.Compute(MakeObserved("t", {10, 20, 150})), 2.0);
  EXPECT_DOUBLE_EQ(trait.Compute(MakeObserved("t", {150, 200})), 0.0);
  EXPECT_DOUBLE_EQ(trait.Compute(MakeObserved("t", {})), 0.0);
  EXPECT_FALSE(trait.is_cost());
}

TEST(TraitsTest, PartitionAwareReductionSubtractsOutputs) {
  // 4 small files of 30 bytes in one partition, target 100: they merge
  // into ceil(120/100)=2 outputs, so reduction is 2 (not 4).
  ObservedCandidate oc;
  oc.stats.target_file_size_bytes = 100;
  oc.stats.file_sizes = {30, 30, 30, 30};
  oc.stats.file_count = 4;
  oc.stats.file_sizes_by_partition = std::make_shared<const PartitionSizes>(
      PartitionSizes{{"p=1", {30, 30, 30, 30}}});
  PartitionAwareFileCountReductionTrait trait;
  EXPECT_DOUBLE_EQ(trait.Compute(oc), 2.0);

  // Split across partitions, merging is confined: 2 small per partition,
  // each merges to 1 output -> reduction 1 per partition = 2 total.
  ObservedCandidate split;
  split.stats.target_file_size_bytes = 100;
  split.stats.file_sizes = {30, 30, 30, 30};
  split.stats.file_sizes_by_partition =
      std::make_shared<const PartitionSizes>(
          PartitionSizes{{"p=1", {30, 30}}, {"p=2", {30, 30}}});
  EXPECT_DOUBLE_EQ(trait.Compute(split), 2.0);

  // The naive estimator overestimates vs the partition-aware one (§7).
  FileCountReductionTrait naive;
  EXPECT_GT(naive.Compute(oc), trait.Compute(oc));
}

TEST(TraitsTest, SmallFileRatio) {
  SmallFileRatioTrait trait;
  EXPECT_DOUBLE_EQ(trait.Compute(MakeObserved("t", {10, 150})), 0.5);
  EXPECT_DOUBLE_EQ(trait.Compute(MakeObserved("t", {})), 0.0);
}

TEST(TraitsTest, EntropyBoundsAndMonotonicity) {
  FileEntropyTrait trait;
  // Perfect layout: zero entropy.
  EXPECT_DOUBLE_EQ(trait.Compute(MakeObserved("t", {100, 200})), 0.0);
  // Tiny files: entropy approaches 1.
  const double tiny = trait.Compute(MakeObserved("t", {1, 1, 1}));
  EXPECT_GT(tiny, 0.9);
  EXPECT_LE(tiny, 1.0);
  // Near-target files score lower than tiny files.
  const double near = trait.Compute(MakeObserved("t", {90, 90, 90}));
  EXPECT_LT(near, tiny);
  EXPECT_GT(near, 0.0);
}

TEST(TraitsTest, EntropyAlwaysInUnitInterval) {
  FileEntropyTrait trait;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    std::vector<int64_t> sizes;
    const int n = static_cast<int>(rng.UniformInt(1, 40));
    for (int j = 0; j < n; ++j) sizes.push_back(rng.UniformInt(1, 300));
    const double e = trait.Compute(MakeObserved("t", std::move(sizes)));
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 1.0);
  }
}

TEST(TraitsTest, ComputeCostFollowsPaperFormula) {
  ComputeCostTrait trait(/*executor_memory_gb=*/192,
                         /*rewrite_bytes_per_hour=*/1000);
  // Small bytes = 10 + 20 = 30 -> 192 * 30/1000.
  EXPECT_DOUBLE_EQ(trait.Compute(MakeObserved("t", {10, 20, 150})),
                   192.0 * 30.0 / 1000.0);
  EXPECT_TRUE(trait.is_cost());
}

TEST(TraitsTest, ComputeTraitsFillsAllNames) {
  std::vector<std::shared_ptr<const Trait>> traits = {
      std::make_shared<FileCountReductionTrait>(),
      std::make_shared<FileEntropyTrait>(),
      std::make_shared<ComputeCostTrait>(10, 100)};
  auto result = ComputeTraits({MakeObserved("t", {10, 150})}, traits);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].traits.size(), 3u);
  EXPECT_TRUE(result[0].traits.count("file_count_reduction"));
  EXPECT_TRUE(result[0].traits.count("file_entropy"));
  EXPECT_TRUE(result[0].traits.count("compute_cost_gbhr"));
}

// ---------------------------------------------------------------- Filters

TEST(FiltersTest, RecentCreationFilter) {
  RecentCreationFilter filter(/*min_age=*/kHour);
  ObservedCandidate young = MakeObserved("t", {1});
  young.stats.table_created_at = 10 * kHour;
  EXPECT_FALSE(filter.ShouldKeep(young, 10 * kHour + kMinute));
  EXPECT_TRUE(filter.ShouldKeep(young, 12 * kHour));
}

TEST(FiltersTest, MinSizeAndMinSmallFiles) {
  MinSizeFilter size_filter(100);
  EXPECT_FALSE(size_filter.ShouldKeep(MakeObserved("t", {10, 20}), 0));
  EXPECT_TRUE(size_filter.ShouldKeep(MakeObserved("t", {60, 60}), 0));

  MinSmallFilesFilter small_filter(2);
  EXPECT_FALSE(small_filter.ShouldKeep(MakeObserved("t", {10, 150}), 0));
  EXPECT_TRUE(small_filter.ShouldKeep(MakeObserved("t", {10, 20}), 0));
}

TEST(FiltersTest, RecentWriteActivityFilter) {
  RecentWriteActivityFilter filter(/*quiesce_window=*/10 * kMinute);
  ObservedCandidate hot = MakeObserved("t", {1});
  hot.stats.last_modified_at = kHour;
  EXPECT_FALSE(filter.ShouldKeep(hot, kHour + kMinute));
  EXPECT_TRUE(filter.ShouldKeep(hot, kHour + 11 * kMinute));
}

TEST(FiltersTest, PredicateFilterAndChain) {
  auto only_db1 = std::make_shared<PredicateFilter>(
      "only-db1", [](const ObservedCandidate& c, SimTime) {
        return c.candidate.table.rfind("db1.", 0) == 0;
      });
  auto min_files = std::make_shared<MinSmallFilesFilter>(1);
  std::vector<ObservedCandidate> pool = {
      MakeObserved("db1.a", {10}), MakeObserved("db2.b", {10}),
      MakeObserved("db1.c", {500})};
  int64_t dropped = 0;
  auto kept = ApplyFilters(pool, {only_db1, min_files}, 0, &dropped);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].candidate.table, "db1.a");
  EXPECT_EQ(dropped, 2);
}

// ---------------------------------------------------------------- Ranking

TraitedCandidate MakeTraited(const std::string& table, double reduction,
                             double cost) {
  TraitedCandidate tc;
  tc.observed.candidate.table = table;
  tc.traits["file_count_reduction"] = reduction;
  tc.traits["compute_cost_gbhr"] = cost;
  return tc;
}

TEST(MoopRankerTest, OrdersByWeightedScore) {
  MoopRanker ranker = MoopRanker::PaperDefault();
  // high benefit / low cost should rank first; low benefit / high cost
  // last.
  auto ranked = ranker.Rank({MakeTraited("low", 10, 90),
                             MakeTraited("best", 100, 10),
                             MakeTraited("mid", 50, 50)});
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].candidate().table, "best");
  EXPECT_EQ(ranked[2].candidate().table, "low");
  EXPECT_GE(ranked[0].score, ranked[1].score);
  EXPECT_GE(ranked[1].score, ranked[2].score);
}

TEST(MoopRankerTest, ScoresBoundedByWeights) {
  MoopRanker ranker = MoopRanker::PaperDefault();
  auto ranked = ranker.Rank({MakeTraited("a", 1, 1), MakeTraited("b", 5, 9),
                             MakeTraited("c", 9, 3)});
  for (const auto& sc : ranked) {
    EXPECT_LE(sc.score, 0.7 + 1e-9);
    EXPECT_GE(sc.score, -0.3 - 1e-9);
  }
}

TEST(MoopRankerTest, DegenerateTraitNeutral) {
  // All candidates share the same cost: cost cannot influence ranking.
  MoopRanker ranker = MoopRanker::PaperDefault();
  auto ranked = ranker.Rank(
      {MakeTraited("small", 1, 42), MakeTraited("big", 10, 42)});
  EXPECT_EQ(ranked[0].candidate().table, "big");
}

TEST(MoopRankerTest, DeterministicTieBreakById) {
  MoopRanker ranker = MoopRanker::PaperDefault();
  auto ranked = ranker.Rank(
      {MakeTraited("zzz", 5, 5), MakeTraited("aaa", 5, 5)});
  EXPECT_EQ(ranked[0].candidate().table, "aaa");
}

TEST(MoopRankerTest, IdenticalInputsIdenticalOutputs) {
  // NFR2: run twice, same result.
  MoopRanker ranker({{"file_count_reduction", 0.5, false},
                     {"compute_cost_gbhr", 0.5, true}});
  std::vector<TraitedCandidate> pool = {MakeTraited("a", 3, 9),
                                        MakeTraited("b", 7, 2),
                                        MakeTraited("c", 5, 5)};
  auto r1 = ranker.Rank(pool);
  auto r2 = ranker.Rank(pool);
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].candidate().table, r2[i].candidate().table);
    EXPECT_DOUBLE_EQ(r1[i].score, r2[i].score);
  }
}

TEST(SingleTraitRankerTest, RanksByRawTrait) {
  SingleTraitRanker ranker("file_count_reduction");
  auto ranked =
      ranker.Rank({MakeTraited("a", 3, 0), MakeTraited("b", 30, 0)});
  EXPECT_EQ(ranked[0].candidate().table, "b");
  EXPECT_DOUBLE_EQ(ranked[0].score, 30);
}

TEST(ThresholdPolicyTest, TriggersAtOrAboveThreshold) {
  ThresholdPolicy policy("file_count_reduction", 10);
  EXPECT_TRUE(policy.ShouldCompact(MakeTraited("t", 10, 0)));
  EXPECT_TRUE(policy.ShouldCompact(MakeTraited("t", 11, 0)));
  EXPECT_FALSE(policy.ShouldCompact(MakeTraited("t", 9.99, 0)));
  auto triggered = policy.Triggered(
      {MakeTraited("a", 5, 0), MakeTraited("b", 15, 0)});
  ASSERT_EQ(triggered.size(), 1u);
}

// -------------------------------------------------------------- Selectors

std::vector<ScoredCandidate> MakeRanked(
    std::initializer_list<std::tuple<std::string, double, double>> rows) {
  // (table, score, cost)
  std::vector<ScoredCandidate> out;
  for (const auto& [table, score, cost] : rows) {
    ScoredCandidate sc;
    sc.traited = MakeTraited(table, 0, cost);
    sc.score = score;
    out.push_back(std::move(sc));
  }
  return out;
}

TEST(FixedKSelectorTest, TakesTopK) {
  auto ranked = MakeRanked({{"a", 3, 0}, {"b", 2, 0}, {"c", 1, 0}});
  EXPECT_EQ(FixedKSelector(2).Select(ranked).size(), 2u);
  EXPECT_EQ(FixedKSelector(0).Select(ranked).size(), 0u);
  EXPECT_EQ(FixedKSelector(99).Select(ranked).size(), 3u);
  EXPECT_EQ(FixedKSelector(-1).Select(ranked).size(), 0u);
}

TEST(BudgetedSelectorTest, RespectsBudgetGreedily) {
  auto ranked = MakeRanked(
      {{"a", 5, 60}, {"b", 4, 50}, {"c", 3, 30}, {"d", 2, 10}});
  BudgetedSelector selector(100, "compute_cost_gbhr");
  auto selected = selector.Select(ranked);
  // a(60) fits; b(50) does not (110 > 100); c(30) fits (90); d(10) fits
  // (100).
  ASSERT_EQ(selected.size(), 3u);
  EXPECT_EQ(selected[0].candidate().table, "a");
  EXPECT_EQ(selected[1].candidate().table, "c");
  EXPECT_EQ(selected[2].candidate().table, "d");
  double total = 0;
  for (const auto& sc : selected) {
    total += sc.traited.traits.at("compute_cost_gbhr");
  }
  EXPECT_LE(total, 100.0);
}

TEST(BudgetedSelectorTest, StrictModeStopsAtFirstMiss) {
  auto ranked = MakeRanked({{"a", 5, 60}, {"b", 4, 50}, {"c", 3, 10}});
  BudgetedSelector selector(100, "compute_cost_gbhr",
                            /*skip_unaffordable=*/false);
  auto selected = selector.Select(ranked);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0].candidate().table, "a");
}

TEST(BudgetedSelectorTest, DynamicKGrowsWithBudget) {
  std::vector<ScoredCandidate> ranked;
  for (int i = 0; i < 100; ++i) {
    ScoredCandidate sc;
    sc.traited = MakeTraited("t" + std::to_string(i), 0, 1.0);
    sc.score = 100 - i;
    ranked.push_back(std::move(sc));
  }
  EXPECT_EQ(BudgetedSelector(10, "compute_cost_gbhr").Select(ranked).size(),
            10u);
  EXPECT_EQ(BudgetedSelector(55, "compute_cost_gbhr").Select(ranked).size(),
            55u);
}

TEST(KnapsackSelectorTest, BeatsOrMatchesGreedyValue) {
  // Classic greedy trap: one big item blocks two better small ones.
  auto ranked = MakeRanked({{"big", 10, 100}, {"s1", 6, 50}, {"s2", 6, 50}});
  const auto greedy =
      BudgetedSelector(100, "compute_cost_gbhr").Select(ranked);
  const auto optimal =
      KnapsackSelector(100, "compute_cost_gbhr").Select(ranked);
  auto total_score = [](const std::vector<ScoredCandidate>& v) {
    double s = 0;
    for (const auto& sc : v) s += sc.score;
    return s;
  };
  EXPECT_GE(total_score(optimal), total_score(greedy));
  EXPECT_DOUBLE_EQ(total_score(optimal), 12.0);
  double cost = 0;
  for (const auto& sc : optimal) {
    cost += sc.traited.traits.at("compute_cost_gbhr");
  }
  EXPECT_LE(cost, 100.0 + 1e-9);
}

TEST(KnapsackSelectorTest, EmptyAndZeroBudget) {
  EXPECT_TRUE(KnapsackSelector(0, "compute_cost_gbhr")
                  .Select(MakeRanked({{"a", 1, 1}}))
                  .empty());
  EXPECT_TRUE(KnapsackSelector(10, "compute_cost_gbhr").Select({}).empty());
}

TEST(QuotaWeightTest, ProductionFormula) {
  EXPECT_DOUBLE_EQ(QuotaAwareBenefitWeight(0.0), 0.5);
  EXPECT_DOUBLE_EQ(QuotaAwareBenefitWeight(1.0), 1.0);
  EXPECT_DOUBLE_EQ(QuotaAwareBenefitWeight(0.5), 0.75);
  EXPECT_DOUBLE_EQ(QuotaAwareBenefitWeight(2.0), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(QuotaAwareBenefitWeight(-1.0), 0.5);
}

// ----------------------------------------------- Generators + integration

class CoreFixture : public ::testing::Test {
 protected:
  CoreFixture()
      : nn_(&clock_),
        catalog_(&clock_, &nn_),
        control_plane_(&catalog_),
        query_cluster_("q", {}, &clock_),
        compaction_cluster_("c", CompactionOptions(), &clock_),
        engine_(&query_cluster_, &catalog_, &clock_),
        runner_(&compaction_cluster_, &catalog_, &clock_) {
    EXPECT_TRUE(catalog_.CreateDatabase("db").ok());
  }

  static engine::ClusterOptions CompactionOptions() {
    engine::ClusterOptions opts;
    opts.executors = 3;
    return opts;
  }

  void MakePartitionedTable(const std::string& name) {
    auto table = catalog_.CreateTable(
        "db", name, lst::Schema(0, {{1, "d", lst::FieldType::kDate, true}}),
        lst::PartitionSpec(1, {{1, lst::Transform::kMonth, "m"}}));
    ASSERT_TRUE(table.ok());
  }

  void MakeUnpartitionedTable(const std::string& name) {
    auto table = catalog_.CreateTable(
        "db", name, lst::Schema(0, {{1, "v", lst::FieldType::kInt64, true}}),
        lst::PartitionSpec::Unpartitioned());
    ASSERT_TRUE(table.ok());
  }

  void FragmentTable(const std::string& qualified,
                     std::vector<std::string> partitions,
                     int64_t logical = 256 * kMiB) {
    engine::WriteSpec spec;
    spec.table = qualified;
    spec.logical_bytes = logical;
    spec.partitions = std::move(partitions);
    spec.profile = engine::UntunedUserJobProfile();
    ASSERT_TRUE(engine_.ExecuteWrite(spec, clock_.Now()).ok());
  }

  StatsCollector MakeCollector() {
    return StatsCollector(&catalog_, &control_plane_, &clock_);
  }

  SimulatedClock clock_{0};
  storage::NameNode nn_;
  catalog::Catalog catalog_;
  catalog::ControlPlane control_plane_;
  engine::Cluster query_cluster_;
  engine::Cluster compaction_cluster_;
  engine::QueryEngine engine_;
  engine::CompactionRunner runner_;
};

TEST_F(CoreFixture, TableScopeGeneratorEmitsAllTablesSorted) {
  MakePartitionedTable("b");
  MakeUnpartitionedTable("a");
  TableScopeGenerator gen;
  auto candidates = gen.Generate(&catalog_);
  ASSERT_TRUE(candidates.ok());
  ASSERT_EQ(candidates->size(), 2u);
  EXPECT_EQ((*candidates)[0].table, "db.a");
  EXPECT_EQ((*candidates)[1].table, "db.b");
  EXPECT_EQ((*candidates)[0].scope, CandidateScope::kTable);
}

TEST_F(CoreFixture, PartitionScopeGeneratorSkipsUnpartitioned) {
  MakePartitionedTable("p");
  MakeUnpartitionedTable("u");
  FragmentTable("db.p", {"m=2024-01", "m=2024-02"});
  FragmentTable("db.u", {});
  PartitionScopeGenerator gen;
  auto candidates = gen.Generate(&catalog_);
  ASSERT_TRUE(candidates.ok());
  ASSERT_EQ(candidates->size(), 2u);
  for (const Candidate& c : *candidates) {
    EXPECT_EQ(c.table, "db.p");
    EXPECT_EQ(c.scope, CandidateScope::kPartition);
    ASSERT_TRUE(c.partition.has_value());
  }
}

TEST_F(CoreFixture, HybridScopeMixes) {
  MakePartitionedTable("p");
  MakeUnpartitionedTable("u");
  FragmentTable("db.p", {"m=2024-01"});
  FragmentTable("db.u", {});
  HybridScopeGenerator gen;
  auto candidates = gen.Generate(&catalog_);
  ASSERT_TRUE(candidates.ok());
  ASSERT_EQ(candidates->size(), 2u);
  // Sorted by id: "db.p/m=2024-01" < "db.u".
  EXPECT_EQ((*candidates)[0].scope, CandidateScope::kPartition);
  EXPECT_EQ((*candidates)[1].scope, CandidateScope::kTable);
}

TEST_F(CoreFixture, SnapshotScopeTracksLastReplace) {
  MakePartitionedTable("p");
  FragmentTable("db.p", {"m=2024-01"});
  engine::CompactionRequest request;
  request.table = "db.p";
  auto compacted = runner_.Run(request, clock_.Now());
  ASSERT_TRUE(compacted.ok() && compacted->committed);
  SnapshotScopeGenerator gen;
  auto candidates = gen.Generate(&catalog_);
  ASSERT_TRUE(candidates.ok());
  ASSERT_EQ(candidates->size(), 1u);
  EXPECT_EQ((*candidates)[0].after_snapshot_id, compacted->snapshot_id);
}

TEST_F(CoreFixture, StatsCollectorFillsGenericStats) {
  MakePartitionedTable("p");
  clock_.AdvanceTo(kHour);
  FragmentTable("db.p", {"m=2024-01", "m=2024-02"});
  Candidate candidate;
  candidate.table = "db.p";
  candidate.scope = CandidateScope::kTable;
  auto stats = MakeCollector().Collect(candidate);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->file_count, 0);
  EXPECT_EQ(static_cast<int64_t>(stats->file_sizes.size()),
            stats->file_count);
  EXPECT_GT(stats->total_bytes, 0);
  EXPECT_EQ(stats->partition_sizes().size(), 2u);
  EXPECT_EQ(stats->table_created_at, 0);
  EXPECT_EQ(stats->last_modified_at, kHour);
  EXPECT_EQ(stats->target_file_size_bytes, 512 * kMiB);
}

TEST_F(CoreFixture, StatsCollectorPartitionScope) {
  MakePartitionedTable("p");
  FragmentTable("db.p", {"m=2024-01", "m=2024-02"});
  Candidate candidate;
  candidate.table = "db.p";
  candidate.scope = CandidateScope::kPartition;
  candidate.partition = "m=2024-01";
  auto stats = MakeCollector().Collect(candidate);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->partition_sizes().size(), 1u);
  Candidate full = candidate;
  full.scope = CandidateScope::kTable;
  full.partition.reset();
  auto full_stats = MakeCollector().Collect(full);
  EXPECT_LT(stats->file_count, full_stats->file_count);
}

TEST_F(CoreFixture, StatsCollectorQuotaUtilization) {
  ASSERT_TRUE(catalog_.CreateDatabase("quotadb", 1000).ok());
  auto table = catalog_.CreateTable(
      "quotadb", "t", lst::Schema(0, {{1, "v", lst::FieldType::kInt64, true}}),
      lst::PartitionSpec::Unpartitioned());
  ASSERT_TRUE(table.ok());
  FragmentTable("quotadb.t", {});
  Candidate candidate;
  candidate.table = "quotadb.t";
  auto stats = MakeCollector().Collect(candidate);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->quota_utilization, 0.0);
  EXPECT_LT(stats->quota_utilization, 1.0);
}

// -------------------------------------------------------------- Executors

TEST_F(CoreFixture, SerialExecutorRunsAllUnits) {
  MakePartitionedTable("p");
  FragmentTable("db.p", {"m=2024-01", "m=2024-02"});
  auto collector = MakeCollector();
  HybridScopeGenerator gen;
  auto pool = gen.Generate(&catalog_);
  auto observed = collector.CollectAll(*pool);
  auto traited = ComputeTraits(*observed, {std::make_shared<FileCountReductionTrait>()});
  SingleTraitRanker ranker("file_count_reduction");
  auto ranked = ranker.Rank(traited);

  SerialExecutor executor(&runner_, &control_plane_);
  auto executed =
      executor.Execute(ranked, engine::RewriteMovement::kPartial, kHour);
  ASSERT_TRUE(executed.ok());
  ASSERT_EQ(executed->size(), 2u);
  for (const auto& unit : *executed) {
    EXPECT_TRUE(unit.result.committed);
  }
  // Sequential: second unit starts no earlier than the first ends.
  EXPECT_GE((*executed)[1].result.start_time,
            (*executed)[0].result.end_time);
}

TEST_F(CoreFixture, TableParallelExecutorSerializesWithinTable) {
  MakePartitionedTable("p1");
  MakePartitionedTable("p2");
  FragmentTable("db.p1", {"m=2024-01", "m=2024-02"});
  FragmentTable("db.p2", {"m=2024-01"});
  auto collector = MakeCollector();
  HybridScopeGenerator gen;
  auto pool = gen.Generate(&catalog_);
  auto observed = collector.CollectAll(*pool);
  auto traited = ComputeTraits(
      *observed, {std::make_shared<FileCountReductionTrait>()});
  auto ranked = SingleTraitRanker("file_count_reduction").Rank(traited);

  TableParallelExecutor executor(&runner_, &control_plane_);
  auto executed =
      executor.Execute(ranked, engine::RewriteMovement::kPartial, kHour);
  ASSERT_TRUE(executed.ok());
  ASSERT_EQ(executed->size(), 3u);
  // All commit: within-table sequencing avoids the v1.2.0 conflict.
  for (const auto& unit : *executed) {
    EXPECT_TRUE(unit.result.committed) << unit.candidate.id();
  }
  // Units of db.p1 are chained.
  std::vector<const ScheduledCompaction*> p1_units;
  for (const auto& unit : *executed) {
    if (unit.candidate.table == "db.p1") p1_units.push_back(&unit);
  }
  ASSERT_EQ(p1_units.size(), 2u);
  EXPECT_GE(p1_units[1]->result.start_time, p1_units[0]->result.end_time);
}

TEST_F(CoreFixture, RetentionAfterCommitRemovesReplacedFiles) {
  MakePartitionedTable("p");
  FragmentTable("db.p", {"m=2024-01"});
  const int64_t storage_before = nn_.AggregateStats().file_count;

  catalog::TablePolicy policy;
  policy.snapshot_retention = 0;  // expire immediately
  control_plane_.SetPolicy("db.p", policy);

  auto collector = MakeCollector();
  TableScopeGenerator gen;
  auto observed = collector.CollectAll(*gen.Generate(&catalog_));
  auto ranked = SingleTraitRanker("file_count_reduction")
                    .Rank(ComputeTraits(
                        *observed,
                        {std::make_shared<FileCountReductionTrait>()}));
  clock_.AdvanceTo(kHour);
  SerialExecutor executor(&runner_, &control_plane_);
  auto executed = executor.Execute(ranked, engine::RewriteMovement::kPartial,
                                   clock_.Now());
  ASSERT_TRUE(executed.ok());
  // Storage file count dropped (replaced files physically deleted).
  EXPECT_LT(nn_.AggregateStats().file_count, storage_before);
}

TEST(OffPeakExecutorTest, DefersIntoWindow) {
  SimulatedClock clock(0);
  storage::NameNode nn(&clock);
  catalog::Catalog cat(&clock, &nn);
  catalog::ControlPlane plane(&cat);
  engine::Cluster cluster("c", {}, &clock);
  engine::CompactionRunner runner(&cluster, &cat, &clock);
  OffPeakExecutor executor(
      std::make_unique<SerialExecutor>(&runner, &plane), 22, 6);
  // 10:00 is outside [22,06): next window start is 22:00 today.
  EXPECT_EQ(executor.NextWindowStart(10 * kHour), 22 * kHour);
  // 23:00 is inside.
  EXPECT_EQ(executor.NextWindowStart(23 * kHour), 23 * kHour);
  // 03:00 is inside (wrapped window).
  EXPECT_EQ(executor.NextWindowStart(27 * kHour), 27 * kHour);
  // Non-wrapping window [2,4): at 05:00, next start is tomorrow 02:00.
  OffPeakExecutor narrow(
      std::make_unique<SerialExecutor>(&runner, &plane), 2, 4);
  EXPECT_EQ(narrow.NextWindowStart(5 * kHour), kDay + 2 * kHour);
}

// ------------------------------------------------------------- Pipeline

TEST_F(CoreFixture, PipelineEndToEnd) {
  MakePartitionedTable("p");
  MakeUnpartitionedTable("u");
  FragmentTable("db.p", {"m=2024-01", "m=2024-02"});
  FragmentTable("db.u", {});
  clock_.AdvanceTo(kHour);

  AutoCompPipeline::Stages stages;
  stages.generator = std::make_shared<HybridScopeGenerator>();
  stages.collector = std::make_shared<StatsCollector>(
      &catalog_, &control_plane_, &clock_);
  stages.pre_orient_filters = {std::make_shared<MinSmallFilesFilter>(2)};
  stages.traits = {std::make_shared<FileCountReductionTrait>(),
                   std::make_shared<ComputeCostTrait>(192, kTiB)};
  stages.ranker = std::make_shared<MoopRanker>(MoopRanker::PaperDefault());
  stages.selector = std::make_shared<FixedKSelector>(2);
  stages.executor = std::make_shared<TableParallelExecutor>(
      &runner_, &control_plane_);
  AutoCompPipeline pipeline(std::move(stages), &catalog_, &clock_);

  auto report = pipeline.RunOnce();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->candidates_generated, 3);
  EXPECT_EQ(report->selected.size(), 2u);
  EXPECT_EQ(report->committed_count(), 2);
  EXPECT_GT(report->files_reduced(), 0);
  EXPECT_GT(report->actual_gb_hours(), 0);
  EXPECT_EQ(report->feedback.size(), 2u);
  for (const FeedbackEntry& fb : report->feedback) {
    EXPECT_GT(fb.estimated_file_reduction, 0);
    EXPECT_GT(fb.actual_file_reduction, 0);
  }
}

TEST_F(CoreFixture, PipelineDryRunWithoutScheduler) {
  MakePartitionedTable("p");
  FragmentTable("db.p", {"m=2024-01"});
  AutoCompPipeline::Stages stages;
  stages.generator = std::make_shared<TableScopeGenerator>();
  stages.collector = std::make_shared<StatsCollector>(
      &catalog_, &control_plane_, &clock_);
  stages.traits = {std::make_shared<FileCountReductionTrait>()};
  stages.ranker = std::make_shared<SingleTraitRanker>("file_count_reduction");
  stages.selector = std::make_shared<FixedKSelector>(10);
  stages.executor = nullptr;  // decide-only
  AutoCompPipeline pipeline(std::move(stages), &catalog_, &clock_);
  auto report = pipeline.RunOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->selected.empty());
  EXPECT_TRUE(report->executed.empty());
}

TEST_F(CoreFixture, PipelineDeterministicAcrossRuns) {
  MakePartitionedTable("p");
  FragmentTable("db.p", {"m=2024-01", "m=2024-02"});
  auto make_pipeline = [&]() {
    AutoCompPipeline::Stages stages;
    stages.generator = std::make_shared<HybridScopeGenerator>();
    stages.collector = std::make_shared<StatsCollector>(
        &catalog_, &control_plane_, &clock_);
    stages.traits = {std::make_shared<FileCountReductionTrait>(),
                     std::make_shared<ComputeCostTrait>(192, kTiB)};
    stages.ranker = std::make_shared<MoopRanker>(MoopRanker::PaperDefault());
    stages.selector = std::make_shared<FixedKSelector>(5);
    stages.executor = nullptr;
    return AutoCompPipeline(std::move(stages), &catalog_, &clock_);
  };
  auto r1 = make_pipeline().RunOnce();
  auto r2 = make_pipeline().RunOnce();
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_EQ(r1->ranked.size(), r2->ranked.size());
  for (size_t i = 0; i < r1->ranked.size(); ++i) {
    EXPECT_EQ(r1->ranked[i].candidate().id(), r2->ranked[i].candidate().id());
    EXPECT_DOUBLE_EQ(r1->ranked[i].score, r2->ranked[i].score);
  }
}

// --------------------------------------------------------------- Triggers

TEST(PeriodicTriggerTest, DueAndAdvance) {
  PeriodicTrigger trigger(kHour, kHour);
  EXPECT_FALSE(trigger.Due(kMinute));
  EXPECT_TRUE(trigger.Due(kHour));
  trigger.MarkRun(kHour);
  EXPECT_EQ(trigger.next_due(), 2 * kHour);
  // Missed intervals collapse.
  trigger.MarkRun(10 * kHour);
  EXPECT_EQ(trigger.next_due(), 11 * kHour);
}

TEST_F(CoreFixture, NotifyHookQueuesAndDeduplicates) {
  OptimizeAfterWriteHook hook;
  ASSERT_TRUE(hook.OnWrite("db.t", std::nullopt, 0).ok());
  ASSERT_TRUE(hook.OnWrite("db.t", std::nullopt, 1).ok());
  ASSERT_TRUE(hook.OnWrite("db.t", std::string("m=1"), 2).ok());
  auto drained = hook.DrainNotifications();
  ASSERT_EQ(drained.size(), 2u);  // table + (table,partition)
  EXPECT_TRUE(hook.DrainNotifications().empty());
}

TEST_F(CoreFixture, ImmediateHookCompactsWhenThresholdExceeded) {
  MakePartitionedTable("p");
  FragmentTable("db.p", {"m=2024-01"});
  OptimizeAfterWriteHook::ImmediateStages stages{
      std::make_shared<StatsCollector>(&catalog_, &control_plane_, &clock_),
      {std::make_shared<FileCountReductionTrait>()},
      ThresholdPolicy("file_count_reduction", 5),
      std::make_shared<SerialExecutor>(&runner_, &control_plane_)};
  OptimizeAfterWriteHook hook(std::move(stages));
  auto result = hook.OnWrite("db.p", std::string("m=2024-01"), kHour);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->has_value());
  EXPECT_TRUE((*result)->result.committed);
  EXPECT_EQ(hook.triggered_count(), 1);

  // Below threshold now: no trigger.
  auto again = hook.OnWrite("db.p", std::string("m=2024-01"), 2 * kHour);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->has_value());
  EXPECT_EQ(hook.evaluated_count(), 2);
}

TEST_F(CoreFixture, ServiceTicksOnSchedule) {
  MakePartitionedTable("p");
  FragmentTable("db.p", {"m=2024-01"});
  AutoCompPipeline::Stages stages;
  stages.generator = std::make_shared<TableScopeGenerator>();
  stages.collector = std::make_shared<StatsCollector>(
      &catalog_, &control_plane_, &clock_);
  stages.traits = {std::make_shared<FileCountReductionTrait>()};
  stages.ranker = std::make_shared<SingleTraitRanker>("file_count_reduction");
  stages.selector = std::make_shared<FixedKSelector>(10);
  stages.executor = std::make_shared<SerialExecutor>(&runner_,
                                                      &control_plane_);
  auto pipeline = std::make_unique<AutoCompPipeline>(std::move(stages),
                                                     &catalog_, &clock_);
  AutoCompService service(std::move(pipeline), PeriodicTrigger(kHour, kHour));

  clock_.AdvanceTo(kMinute);
  auto early = service.Tick(clock_.Now());
  ASSERT_TRUE(early.ok());
  EXPECT_FALSE(early->has_value());

  clock_.AdvanceTo(kHour);
  auto due = service.Tick(clock_.Now());
  ASSERT_TRUE(due.ok());
  ASSERT_TRUE(due->has_value());
  EXPECT_GT((*due)->committed_count(), 0);
  EXPECT_EQ(service.history().size(), 1u);

  // Not due again until the next interval.
  auto not_due = service.Tick(clock_.Now());
  ASSERT_TRUE(not_due.ok());
  EXPECT_FALSE(not_due->has_value());
}

// ------------------------------------------------------ Observe errors

TEST_F(CoreFixture, CollectAllReportsFirstFailingCandidate) {
  MakePartitionedTable("p1");
  FragmentTable("db.p1", {"m=2024-01"});
  StatsCollector collector(&catalog_, &control_plane_, &clock_);
  Candidate good;
  good.table = "db.p1";
  Candidate first_bad;
  first_bad.table = "db.missing_a";
  Candidate second_bad;
  second_bad.table = "db.missing_b";
  auto observed = collector.CollectAll({good, first_bad, good, second_bad});
  ASSERT_FALSE(observed.ok());
  EXPECT_EQ(observed.status().ToString(),
            Status::NotFound("no such table: db.missing_a").ToString());
}

// ------------------------------------------------- Indexed observation

TEST_F(CoreFixture, IndexedCollectorRefreshesQuotaAndTargetOnHit) {
  // A database with a namespace quota: a commit to one table changes the
  // quota utilization observed by every *other* table in the database,
  // and a control-plane policy edit changes the target file size —
  // neither moves tenant.b's snapshot. An index hit must still serve
  // both fresh values.
  ASSERT_TRUE(catalog_.CreateDatabase("tenant", 10'000).ok());
  auto t1 = catalog_.CreateTable(
      "tenant", "a", lst::Schema(0, {{1, "v", lst::FieldType::kInt64, true}}),
      lst::PartitionSpec::Unpartitioned());
  auto t2 = catalog_.CreateTable(
      "tenant", "b", lst::Schema(0, {{1, "v", lst::FieldType::kInt64, true}}),
      lst::PartitionSpec::Unpartitioned());
  ASSERT_TRUE(t1.ok() && t2.ok());
  FragmentTable("tenant.a", {});
  FragmentTable("tenant.b", {});

  auto index = std::make_shared<IncrementalStatsIndex>(&catalog_);
  IndexedStatsCollector indexed(&catalog_, &control_plane_, &clock_, index);
  Candidate b_candidate;
  b_candidate.table = "tenant.b";
  auto cold = indexed.Collect(b_candidate);  // builds tenant.b's entry
  ASSERT_TRUE(cold.ok());
  const int64_t hits_before = indexed.index_hits();

  FragmentTable("tenant.a", {});
  catalog::TablePolicy policy = control_plane_.GetPolicy("tenant.b");
  policy.target_file_size_bytes *= 2;
  control_plane_.SetPolicy("tenant.b", policy);

  auto warm = indexed.Collect(b_candidate);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(indexed.index_hits(), hits_before + 1);
  EXPECT_EQ(indexed.index_fallbacks(), 0);
  EXPECT_EQ(index->rebuilds(), 0) << "tenant.b's entry was rebuilt";
  EXPECT_GT(warm->quota_utilization, cold->quota_utilization);
  EXPECT_EQ(warm->target_file_size_bytes, 2 * cold->target_file_size_bytes);

  StatsCollector rescan(&catalog_, &control_plane_, &clock_);
  auto fresh = rescan.Collect(b_candidate);
  ASSERT_TRUE(fresh.ok());
  std::string why;
  EXPECT_TRUE(StatsEquivalent(*fresh, *warm, &why)) << why;
}

}  // namespace
}  // namespace autocomp::core
