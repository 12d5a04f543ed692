/// \file bench_ablation.cc
/// \brief Ablations for the design choices called out in DESIGN.md §5:
///  1. greedy budget fill vs exact knapsack selection (§4.3's "reasonable
///     greedy heuristic"),
///  2. strict table-level vs partition-aware rewrite validation (§4.4 /
///     §8 "conflict filtering"),
///  3. serial vs table-parallel act-phase scheduling.

#include <cstdio>

#include "benchmarks/cab_experiment.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/act.h"
#include "core/observe.h"
#include "core/ranking.h"
#include "core/traits.h"
#include "sim/environment.h"
#include "sim/metrics.h"
#include "sim/presets.h"
#include "workload/tpch.h"

using namespace autocomp;

namespace {

// ------------------------------------------------- 1. greedy vs knapsack

void AblateSelector() {
  std::printf("--- ablation 1: greedy budget fill vs exact knapsack ---\n");
  Rng rng(5);
  sim::TablePrinter table({"budget", "greedy score", "knapsack score",
                           "greedy k", "knapsack k", "gap %"});
  for (double budget : {50.0, 150.0, 400.0}) {
    // Realistic pool: compaction benefit and cost are strongly correlated
    // (both scale with the candidate's small-file volume), ranked with
    // the paper's MOOP weights.
    std::vector<core::TraitedCandidate> pool;
    for (int i = 0; i < 200; ++i) {
      core::TraitedCandidate tc;
      tc.observed.candidate.table = "db.t" + std::to_string(i);
      const double small_gib = rng.LogNormal(std::log(2.0), 1.0);
      const double files = small_gib * rng.Uniform(40, 120);
      tc.traits["file_count_reduction"] = files;
      tc.traits["compute_cost_gbhr"] =
          192.0 * small_gib / 48.0;  // §4.2 formula at 48GiB/h
      pool.push_back(std::move(tc));
    }
    const auto ranked = core::MoopRanker::PaperDefault().Rank(pool);
    const auto greedy =
        core::BudgetedSelector(budget, "compute_cost_gbhr").Select(ranked);
    const auto knapsack =
        core::KnapsackSelector(budget, "compute_cost_gbhr", 2000)
            .Select(ranked);
    auto total = [](const std::vector<core::ScoredCandidate>& v) {
      double s = 0;
      for (const auto& sc : v) s += sc.score;
      return s;
    };
    const double g = total(greedy);
    const double k = total(knapsack);
    table.AddRow({sim::Fmt(budget, 0), sim::Fmt(g, 2), sim::Fmt(k, 2),
                  std::to_string(greedy.size()),
                  std::to_string(knapsack.size()),
                  sim::Fmt(100.0 * (k - g) / std::max(1e-9, k), 1)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "With realistic benefit/cost correlation the greedy fill tracks the\n"
      "optimum within ~5-20%% while being deterministic and trivially\n"
      "explainable (NFR2) — the trade the paper's production deployment\n"
      "makes; the knapsack prefers many small tasks for the same budget.\n\n");
}

// ------------------------------------- 2. strict vs partition-aware mode

void AblateValidation() {
  std::printf("--- ablation 2: rewrite conflict validation mode ---\n");
  sim::TablePrinter table({"validation", "committed", "conflicts",
                           "conflict rate %"});
  for (lst::ValidationMode mode : {lst::ValidationMode::kStrictTableLevel,
                                   lst::ValidationMode::kPartitionAware}) {
    sim::SimEnvironment env;
    AUTOCOMP_CHECK(workload::SetupTpchDatabase(
                       &env.catalog(), &env.query_engine(), "db", 16 * kGiB,
                       engine::UntunedUserJobProfile(), 0)
                       .ok());
    // Two interleaved partition-scope rewrites of the same table: under
    // strict validation the second of any overlapping pair conflicts even
    // though the partitions are disjoint (the Iceberg v1.2.0 quirk).
    auto meta = env.catalog().LoadTable("db.lineitem");
    const auto partitions = (*meta)->LivePartitions();
    int committed = 0, conflicts = 0;
    for (size_t i = 0; i + 1 < partitions.size() && i < 40; i += 2) {
      engine::CompactionRequest a, b;
      a.table = b.table = "db.lineitem";
      a.partition = partitions[i];
      b.partition = partitions[i + 1];
      a.validation_mode = b.validation_mode = mode;
      auto pending_a =
          env.compaction_runner().Prepare(a, env.clock().Now());
      auto pending_b =
          env.compaction_runner().Prepare(b, env.clock().Now());
      AUTOCOMP_CHECK(pending_a.ok() && pending_b.ok());
      for (auto* pending : {&pending_a, &pending_b}) {
        if (!(*pending)->result.attempted) continue;
        auto result =
            env.compaction_runner().Finalize(std::move(*pending).value());
        if (result.committed) ++committed;
        if (result.conflict) ++conflicts;
      }
      env.clock().Advance(kMinute);
    }
    table.AddRow({mode == lst::ValidationMode::kStrictTableLevel
                      ? "strict table-level (Iceberg v1.2.0)"
                      : "partition-aware (conflict filtering)",
                  std::to_string(committed), std::to_string(conflicts),
                  sim::Fmt(100.0 * conflicts /
                               std::max(1, committed + conflicts),
                           1)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("Partition-aware validation eliminates the disjoint-partition"
              " conflicts that force §6's sequential-within-table "
              "scheduling.\n\n");
}

// --------------------------------------- 3. serial vs parallel scheduling

void AblateScheduler() {
  std::printf("--- ablation 3: act-phase scheduling policy ---\n");
  sim::TablePrinter table(
      {"scheduler", "committed", "conflicts", "makespan (min)"});
  for (int which = 0; which < 2; ++which) {
    sim::SimEnvironment env;
    for (int d = 0; d < 4; ++d) {
      AUTOCOMP_CHECK(workload::SetupTpchDatabase(
                         &env.catalog(), &env.query_engine(),
                         "db" + std::to_string(d), 8 * kGiB,
                         engine::UntunedUserJobProfile(), 0)
                         .ok());
    }
    env.clock().AdvanceTo(kHour);
    core::AutoCompPipeline::Stages stages;
    stages.generator = std::make_shared<core::HybridScopeGenerator>();
    stages.collector = std::make_shared<core::StatsCollector>(
        &env.catalog(), &env.control_plane(), &env.clock());
    stages.traits = {std::make_shared<core::FileCountReductionTrait>(),
                     std::make_shared<core::ComputeCostTrait>(
                         192, env.compaction_cluster()
                                  .options()
                                  .rewrite_bytes_per_hour)};
    stages.ranker = std::make_shared<core::MoopRanker>(
        core::MoopRanker::PaperDefault());
    stages.selector = std::make_shared<core::FixedKSelector>(60);
    if (which == 0) {
      stages.executor = std::make_shared<core::SerialExecutor>(
          &env.compaction_runner(), &env.control_plane());
    } else {
      stages.executor = std::make_shared<core::TableParallelExecutor>(
          &env.compaction_runner(), &env.control_plane());
    }
    core::AutoCompPipeline pipeline(std::move(stages), &env.catalog(),
                                    &env.clock());
    auto report = pipeline.RunOnce();
    AUTOCOMP_CHECK(report.ok());
    SimTime last_end = kHour;
    for (const core::ScheduledCompaction& unit : report->executed) {
      last_end = std::max(last_end, unit.result.end_time);
    }
    table.AddRow({which == 0 ? "serial" : "table-parallel",
                  std::to_string(report->committed_count()),
                  std::to_string(report->conflict_count()),
                  sim::Fmt(static_cast<double>(last_end - kHour) / 60.0, 1)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("Table-parallel scheduling shortens the makespan without "
              "adding conflicts (units of one table stay sequential).\n");
}

// ---------------------------------- 4. plain vs clustering rewrite (§8)

void AblateClustering() {
  std::printf("--- ablation 4: plain vs clustering (Z-order-style) rewrite "
              "---\n");
  sim::TablePrinter table({"rewrite", "compaction GBHr",
                           "selective scan GiB", "full scan GiB",
                           "scan GBHr (selective)"});
  for (const bool cluster : {false, true}) {
    sim::SimEnvironment env;
    AUTOCOMP_CHECK(workload::SetupTpchDatabase(
                       &env.catalog(), &env.query_engine(), "db", 8 * kGiB,
                       engine::UntunedUserJobProfile(), 0)
                       .ok());
    engine::CompactionRequest request;
    request.table = "db.lineitem";
    request.cluster_output = cluster;
    auto result = env.compaction_runner().Run(request, kHour);
    AUTOCOMP_CHECK(result.ok() && result->committed);
    (void)env.control_plane().RunRetentionFor("db.lineitem", SimTime{0});
    env.clock().AdvanceTo(result->end_time + kMinute);
    // A dashboard-style selective query (10% of rows) vs a full scan.
    auto selective = env.query_engine().ExecuteRead(
        "db.lineitem", std::nullopt, env.clock().Now(), 0.1);
    auto full = env.query_engine().ExecuteRead(
        "db.lineitem", std::nullopt, env.clock().Now() + kHour, 1.0);
    AUTOCOMP_CHECK(selective.ok() && full.ok());
    table.AddRow({cluster ? "clustering" : "plain",
                  sim::Fmt(result->gb_hours, 1),
                  sim::Fmt(static_cast<double>(selective->bytes_scanned) /
                               kGiB, 2),
                  sim::Fmt(static_cast<double>(full->bytes_scanned) / kGiB,
                           2),
                  sim::Fmt(selective->gb_hours, 3)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("Clustering costs ~1.6x the rewrite but selective scans skip\n"
              "row groups afterwards - the §8 cost/benefit extension.\n");
}

}  // namespace

int main() {
  std::printf("=== design-choice ablations ===\n\n");
  AblateSelector();
  AblateValidation();
  AblateScheduler();
  AblateClustering();
  return 0;
}
