/// \file multi_tenant_budget.cpp
/// \brief Example: budget-constrained, quota-aware compaction across
/// tenants — the paper's §7 production configuration.
///
/// Three tenant databases share a compaction budget. Tenant quotas feed
/// the production weighting w1 = 0.5 × (1 + UsedQuota/TotalQuota): tables
/// in databases close to their namespace quota get their file-count
/// reduction weighted up, so the budget flows to the tenants about to
/// breach.
///
///   ./multi_tenant_budget

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "core/act.h"
#include "core/observe.h"
#include "core/pipeline.h"
#include "core/ranking.h"
#include "core/traits.h"
#include "sim/environment.h"
#include "workload/tpch.h"

using namespace autocomp;

namespace {

/// A ranker applying the §7 per-candidate quota-aware weights: the
/// benefit weight grows with the candidate's database quota utilization.
/// Demonstrates NFR1: a deployment-specific Ranker slots into the
/// pipeline unchanged.
class QuotaAwareRanker final : public core::Ranker {
 public:
  std::string name() const override { return "quota-aware-moop"; }

  std::vector<core::ScoredCandidate> Rank(
      std::vector<core::TraitedCandidate> candidates) const override {
    // Normalize traits across the pool first (as MoopRanker does), then
    // apply per-candidate weights.
    double min_reduction = 1e300, max_reduction = -1e300;
    double min_cost = 1e300, max_cost = -1e300;
    for (const auto& c : candidates) {
      const double r = c.traits.at("file_count_reduction");
      const double k = c.traits.at("compute_cost_gbhr");
      min_reduction = std::min(min_reduction, r);
      max_reduction = std::max(max_reduction, r);
      min_cost = std::min(min_cost, k);
      max_cost = std::max(max_cost, k);
    }
    std::vector<core::ScoredCandidate> out;
    for (auto& c : candidates) {
      const double r_span = max_reduction - min_reduction;
      const double c_span = max_cost - min_cost;
      const double r_norm =
          r_span > 0
              ? (c.traits.at("file_count_reduction") - min_reduction) / r_span
              : 0;
      const double c_norm =
          c_span > 0 ? (c.traits.at("compute_cost_gbhr") - min_cost) / c_span
                     : 0;
      const double w1 =
          core::QuotaAwareBenefitWeight(c.observed.stats.quota_utilization);
      core::ScoredCandidate sc;
      sc.score = w1 * r_norm - (1.0 - w1) * c_norm;
      sc.traited = std::move(c);
      out.push_back(std::move(sc));
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.candidate().id() < b.candidate().id();
    });
    return out;
  }
};

}  // namespace

int main() {
  Logger::set_threshold(LogLevel::kInfo);
  sim::SimEnvironment env;

  // Three tenants with very different quota headroom. Tenant "crowded" is
  // at ~90% of its namespace quota; "roomy" barely uses its allocation.
  struct Tenant {
    const char* db;
    int64_t quota;
    int64_t data_bytes;
  };
  const Tenant tenants[] = {
      {"crowded", 7'000, 12 * kGiB},
      {"normal", 13'000, 12 * kGiB},
      {"roomy", 80'000, 12 * kGiB},
  };
  for (const Tenant& t : tenants) {
    if (!env.catalog().CreateDatabase(t.db, t.quota).ok()) return 1;
    Status setup = workload::SetupTpchDatabase(
        &env.catalog(), &env.query_engine(), t.db, t.data_bytes,
        engine::UntunedUserJobProfile(), 0);
    if (!setup.ok()) {
      std::fprintf(stderr, "setup %s: %s\n", t.db, setup.ToString().c_str());
      return 1;
    }
  }
  for (const Tenant& t : tenants) {
    const storage::QuotaStatus q = env.catalog().DatabaseQuota(t.db);
    std::printf("%-8s quota %lld/%lld (%.0f%%) -> w1=%.2f\n", t.db,
                static_cast<long long>(q.used_objects),
                static_cast<long long>(q.total_objects),
                100 * q.utilization(),
                core::QuotaAwareBenefitWeight(q.utilization()));
  }

  // Budgeted pipeline with the quota-aware ranker.
  const engine::ClusterOptions& copts = env.compaction_cluster().options();
  core::AutoCompPipeline::Stages stages;
  stages.generator = std::make_shared<core::TableScopeGenerator>();
  stages.collector = std::make_shared<core::StatsCollector>(
      &env.catalog(), &env.control_plane(), &env.clock());
  stages.traits = {std::make_shared<core::FileCountReductionTrait>(),
                   std::make_shared<core::ComputeCostTrait>(
                       copts.executor_memory_gb * copts.executors,
                       copts.rewrite_bytes_per_hour)};
  stages.ranker = std::make_shared<QuotaAwareRanker>();
  stages.selector = std::make_shared<core::BudgetedSelector>(
      /*budget GBHr=*/150.0, "compute_cost_gbhr");
  stages.executor = std::make_shared<core::TableParallelExecutor>(
      &env.compaction_runner(), &env.control_plane());
  core::AutoCompPipeline pipeline(std::move(stages), &env.catalog(),
                                  &env.clock());

  env.clock().AdvanceTo(kHour);
  auto report = pipeline.RunOnce();
  if (!report.ok()) {
    std::fprintf(stderr, "pipeline: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("\nbudget run: %zu selected (dynamic k), %lld committed, "
              "%.1f GBHr spent\n",
              report->selected.size(),
              static_cast<long long>(report->committed_count()),
              report->actual_gb_hours());
  std::printf("%-40s %8s %8s\n", "selected candidate", "score", "estGBHr");
  for (const core::ScoredCandidate& sc : report->selected) {
    std::printf("%-40s %8.3f %8.2f\n", sc.candidate().id().c_str(), sc.score,
                sc.traited.traits.at("compute_cost_gbhr"));
  }
  // The crowded tenant's tables should dominate the front of the list.
  int crowded_in_top5 = 0;
  for (size_t i = 0; i < report->selected.size() && i < 5; ++i) {
    if (report->selected[i].candidate().table.rfind("crowded.", 0) == 0) {
      ++crowded_in_top5;
    }
  }
  std::printf("\ncrowded-tenant tables in top-5: %d (quota pressure pulls "
              "the budget toward the tenant about to breach)\n",
              crowded_in_top5);
  return 0;
}
