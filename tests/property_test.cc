// Property-based (parameterized) suites over the framework's invariants:
// normalization bounds, selector budget respect, determinism, estimator
// soundness, and LST live-set conservation under random operation mixes.

#include <gtest/gtest.h>

#include <set>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "common/random.h"
#include "core/ranking.h"
#include "core/traits.h"
#include "lst/history_validator.h"
#include "lst/metadata_json.h"
#include "lst/table.h"
#include "lst/transaction.h"
#include "storage/namenode.h"

namespace autocomp {
namespace {

// ---------------------------------------------------------- MOOP ranking

core::TraitedCandidate RandomTraited(Rng* rng, int i) {
  core::TraitedCandidate tc;
  tc.observed.candidate.table = "db.t" + std::to_string(i);
  tc.traits["file_count_reduction"] = rng->Uniform(0, 10000);
  tc.traits["compute_cost_gbhr"] = rng->Uniform(0, 500);
  return tc;
}

class MoopPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MoopPropertyTest, ScoresBoundedAndOrderDeterministic) {
  Rng rng(GetParam());
  std::vector<core::TraitedCandidate> pool;
  const int n = static_cast<int>(rng.UniformInt(1, 300));
  for (int i = 0; i < n; ++i) pool.push_back(RandomTraited(&rng, i));

  const core::MoopRanker ranker = core::MoopRanker::PaperDefault();
  const auto ranked = ranker.Rank(pool);
  ASSERT_EQ(ranked.size(), pool.size());
  for (size_t i = 0; i < ranked.size(); ++i) {
    // Weighted normalized scores live in [-w_cost, +w_benefit].
    EXPECT_GE(ranked[i].score, -0.3 - 1e-9);
    EXPECT_LE(ranked[i].score, 0.7 + 1e-9);
    if (i > 0) {
      EXPECT_GE(ranked[i - 1].score, ranked[i].score);
    }
  }
  // Re-ranking the same pool yields the same order (NFR2).
  const auto again = ranker.Rank(pool);
  for (size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_EQ(ranked[i].candidate().id(), again[i].candidate().id());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoopPropertyTest,
                         ::testing::Range(uint64_t{0}, uint64_t{20}));

// ------------------------------------------------------------- Selectors

class SelectorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SelectorPropertyTest, BudgetNeverExceededAndPriorityRespected) {
  Rng rng(GetParam());
  std::vector<core::TraitedCandidate> pool;
  const int n = static_cast<int>(rng.UniformInt(1, 200));
  for (int i = 0; i < n; ++i) pool.push_back(RandomTraited(&rng, i));
  const auto ranked = core::MoopRanker::PaperDefault().Rank(pool);

  const double budget = rng.Uniform(10, 2000);
  const auto selected =
      core::BudgetedSelector(budget, "compute_cost_gbhr").Select(ranked);

  double total = 0;
  std::set<std::string> chosen;
  for (const auto& sc : selected) {
    total += sc.traited.traits.at("compute_cost_gbhr");
    chosen.insert(sc.candidate().id());
  }
  EXPECT_LE(total, budget + 1e-6);

  // Priority property of the greedy fill: any skipped candidate ranked
  // above a chosen one must not have fit at its turn. Equivalent check:
  // walking the ranking and re-simulating the fill reproduces the
  // selection exactly.
  double remaining = budget;
  std::set<std::string> resim;
  for (const auto& sc : ranked) {
    const double cost = sc.traited.traits.at("compute_cost_gbhr");
    if (cost <= remaining) {
      resim.insert(sc.candidate().id());
      remaining -= cost;
    }
  }
  EXPECT_EQ(chosen, resim);

  // Knapsack under the same budget is also feasible and at least as good.
  const auto optimal =
      core::KnapsackSelector(budget, "compute_cost_gbhr", 800).Select(ranked);
  double optimal_cost = 0, optimal_score = 0, greedy_score = 0;
  for (const auto& sc : optimal) {
    optimal_cost += sc.traited.traits.at("compute_cost_gbhr");
    optimal_score += sc.score;
  }
  for (const auto& sc : selected) greedy_score += sc.score;
  EXPECT_LE(optimal_cost, budget + 1e-6);
  // Scores may be negative; compare with a tolerance that absorbs the
  // knapsack's cost discretization.
  EXPECT_GE(optimal_score, greedy_score - 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectorPropertyTest,
                         ::testing::Range(uint64_t{100}, uint64_t{120}));

// ------------------------------------------------------------ Estimators

class EstimatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EstimatorPropertyTest, PartitionAwareNeverExceedsNaive) {
  Rng rng(GetParam());
  core::ObservedCandidate oc;
  oc.stats.target_file_size_bytes = 1000;
  const int partitions = static_cast<int>(rng.UniformInt(1, 20));
  std::vector<int64_t> sizes;
  core::PartitionSizes by_partition;
  for (int p = 0; p < partitions; ++p) {
    const std::string key = "p=" + std::to_string(p);
    const int files = static_cast<int>(rng.UniformInt(0, 50));
    std::vector<int64_t> partition_sizes;
    for (int f = 0; f < files; ++f) {
      const int64_t size = rng.UniformInt(1, 2000);
      sizes.push_back(size);
      partition_sizes.push_back(size);
      ++oc.stats.file_count;
      oc.stats.total_bytes += size;
    }
    if (!partition_sizes.empty()) {
      by_partition.emplace(key, std::move(partition_sizes));
    }
  }
  oc.stats.file_sizes = std::move(sizes);
  oc.stats.file_sizes_by_partition =
      std::make_shared<const core::PartitionSizes>(std::move(by_partition));
  const double naive = core::FileCountReductionTrait().Compute(oc);
  const double aware =
      core::PartitionAwareFileCountReductionTrait().Compute(oc);
  EXPECT_LE(aware, naive);  // outputs always cost at least something
  EXPECT_GE(aware, 0);
  const double entropy = core::FileEntropyTrait().Compute(oc);
  EXPECT_GE(entropy, 0);
  EXPECT_LE(entropy, 1.0);
  const double total_entropy = core::TotalFileEntropyTrait().Compute(oc);
  EXPECT_GE(total_entropy, entropy - 1e-12);  // N * mean >= mean for N>=1
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorPropertyTest,
                         ::testing::Range(uint64_t{200}, uint64_t{225}));

// --------------------------------------------- LST live-set conservation

class LstPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LstPropertyTest, RandomOperationMixConservesLiveSet) {
  // Apply a random mix of appends / overwrites / rewrites / deletes and
  // track the expected live set independently; the table must agree after
  // every commit, and snapshot history must replay to the same set.
  SimulatedClock clock(0);
  storage::NameNode nn(&clock);
  catalog::Catalog catalog(&clock, &nn);
  ASSERT_TRUE(catalog.CreateDatabase("db").ok());
  auto table = catalog.CreateTable(
      "db", "t", lst::Schema(0, {{1, "d", lst::FieldType::kDate, true}}),
      lst::PartitionSpec(1, {{1, lst::Transform::kMonth, "m"}}));
  ASSERT_TRUE(table.ok());

  Rng rng(GetParam());
  std::set<std::string> expected;  // live paths
  int64_t next_file = 0;
  auto make_file = [&](const std::string& partition) {
    lst::DataFile f;
    f.path = "/data/db/t/" + partition + "/f" + std::to_string(next_file++);
    f.partition = partition;
    f.file_size_bytes = rng.UniformInt(1, 1000);
    f.record_count = 1;
    return f;
  };
  const std::vector<std::string> partitions = {"m=2024-01", "m=2024-02",
                                               "m=2024-03"};

  for (int step = 0; step < 60; ++step) {
    clock.Advance(kMinute);
    const double pick = rng.NextDouble();
    auto txn = table->NewTransaction();
    ASSERT_TRUE(txn.ok());
    if (pick < 0.5 || expected.empty()) {
      // Append 1-5 files into a random partition.
      std::vector<lst::DataFile> files;
      const std::string& partition =
          partitions[static_cast<size_t>(rng.UniformInt(0, 2))];
      const int n = static_cast<int>(rng.UniformInt(1, 5));
      for (int i = 0; i < n; ++i) files.push_back(make_file(partition));
      ASSERT_TRUE(txn->Append(files).ok());
      auto committed = txn->Commit();
      ASSERT_TRUE(committed.ok());
      for (const auto& f : files) expected.insert(f.path);
    } else {
      // Pick 1-3 random live paths to replace/delete.
      std::vector<std::string> victims;
      const int want = static_cast<int>(rng.UniformInt(1, 3));
      for (const std::string& path : expected) {
        if (static_cast<int>(victims.size()) >= want) break;
        if (rng.Bernoulli(0.3)) victims.push_back(path);
      }
      if (victims.empty()) victims.push_back(*expected.begin());
      if (pick < 0.7) {
        // Rewrite into one merged file per victim partition group (use
        // the first victim's partition for simplicity: fetch from meta).
        auto meta = table->Metadata();
        std::string partition;
        for (const lst::DataFile& f : (*meta)->LiveFiles()) {
          if (f.path == victims.front()) partition = f.partition;
        }
        // Only rewrite victims within one partition to mirror real
        // compaction.
        std::vector<std::string> same_partition;
        for (const lst::DataFile& f : (*meta)->LiveFiles()) {
          for (const std::string& v : victims) {
            if (f.path == v && f.partition == partition) {
              same_partition.push_back(v);
            }
          }
        }
        const lst::DataFile merged = make_file(partition);
        ASSERT_TRUE(txn->RewriteFiles(same_partition, {merged}).ok());
        auto committed = txn->Commit();
        ASSERT_TRUE(committed.ok()) << committed.status();
        for (const std::string& v : same_partition) expected.erase(v);
        expected.insert(merged.path);
      } else {
        ASSERT_TRUE(txn->DeleteFiles(victims).ok());
        auto committed = txn->Commit();
        ASSERT_TRUE(committed.ok());
        for (const std::string& v : victims) expected.erase(v);
      }
    }
    // Invariant: table live set == tracked set.
    auto meta = table->Metadata();
    std::set<std::string> actual;
    for (const lst::DataFile& f : (*meta)->LiveFiles()) {
      actual.insert(f.path);
    }
    ASSERT_EQ(actual, expected) << "step " << step;
    // Snapshot summaries are internally consistent.
    const lst::Snapshot* snap = (*meta)->current_snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->live_file_count(),
              static_cast<int64_t>(expected.size()));
  }
  // The whole history replays consistently, and survives a JSON
  // round-trip unchanged.
  auto final_meta = table->Metadata();
  ASSERT_TRUE(lst::CheckHistory(**final_meta).ok())
      << lst::CheckHistory(**final_meta);
  auto restored =
      lst::TableMetadataFromJson(lst::TableMetadataToJson(**final_meta));
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(lst::TableMetadataToJson(**restored),
            lst::TableMetadataToJson(**final_meta));
  EXPECT_TRUE(lst::CheckHistory(**restored).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LstPropertyTest,
                         ::testing::Range(uint64_t{300}, uint64_t{315}));

// ----------------------------------------------- Quota conservation

class QuotaPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QuotaPropertyTest, UsageTracksCreatesAndDeletes) {
  SimulatedClock clock(0);
  storage::NameNode nn(&clock);
  nn.SetNamespaceQuota("/data/db", 1'000'000);
  Rng rng(GetParam());
  std::set<std::string> files;
  int64_t next = 0;
  for (int step = 0; step < 200; ++step) {
    if (files.empty() || rng.Bernoulli(0.65)) {
      const std::string path = "/data/db/t/f" + std::to_string(next++);
      ASSERT_TRUE(nn.CreateFile(path, 1, 1).ok());
      files.insert(path);
    } else {
      const std::string path = *files.begin();
      ASSERT_TRUE(nn.DeleteFile(path).ok());
      files.erase(path);
    }
    // used = files + the /data/db/t directory (once it exists).
    const storage::QuotaStatus q = nn.GetQuota("/data/db");
    EXPECT_EQ(q.used_objects, static_cast<int64_t>(files.size()) + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuotaPropertyTest,
                         ::testing::Range(uint64_t{400}, uint64_t{410}));

}  // namespace
}  // namespace autocomp
