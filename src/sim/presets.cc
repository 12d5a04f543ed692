#include "sim/presets.h"

#include "core/act.h"
#include "core/filters.h"
#include "core/observe.h"
#include "core/ranking.h"
#include "core/stats_index.h"
#include "core/traits.h"

namespace autocomp::sim {

std::unique_ptr<core::AutoCompService> MakeMoopService(
    SimEnvironment* env, const StrategyPreset& preset) {
  core::AutoCompPipeline::Stages stages;

  // Non-default policy specs override stage choices along their axes;
  // the Default() spec leaves every choice — and every trace byte —
  // exactly as the pre-decomposition preset produced it.
  const bool has_policy = preset.policy.has_value() &&
                          *preset.policy != core::PolicySpec::Default();
  ScopeStrategy scope = preset.scope;
  if (has_policy) {
    switch (preset.policy->granularity) {
      case core::GranularityAxis::kPartition:
        scope = ScopeStrategy::kPartition;
        break;
      case core::GranularityAxis::kTable:
        scope = ScopeStrategy::kTable;
        break;
      case core::GranularityAxis::kFleet:
        // Fleet granularity = the mixed-scope pool over every table the
        // control plane sees (the hybrid generator).
        scope = ScopeStrategy::kHybrid;
        break;
    }
  }

  // One index shared by the collector (candidate stats) and the
  // generators that read table contents (partition lists, replace
  // watermarks); commit listeners keep it current for the service's
  // lifetime. Observation is O(delta) per cycle and bit-identical to a
  // manifest rescan (NFR2).
  auto index = std::make_shared<core::IncrementalStatsIndex>(&env->catalog());

  switch (scope) {
    case ScopeStrategy::kTable:
      stages.generator = std::make_shared<core::TableScopeGenerator>();
      break;
    case ScopeStrategy::kHybrid:
      stages.generator = std::make_shared<core::HybridScopeGenerator>(index);
      break;
    case ScopeStrategy::kPartition:
      stages.generator =
          std::make_shared<core::PartitionScopeGenerator>(index);
      break;
    case ScopeStrategy::kSnapshot:
      stages.generator = std::make_shared<core::SnapshotScopeGenerator>(index);
      break;
  }

  stages.collector = std::make_shared<core::IndexedStatsCollector>(
      &env->catalog(), &env->control_plane(), &env->clock(), index);
  stages.trace = preset.trace;

  stages.pre_orient_filters.push_back(
      std::make_shared<core::MinSmallFilesFilter>(2));
  if (has_policy) {
    // Trigger axis: the admission filter deciding when a candidate's
    // debt is worth acting on (nullptr for periodic — every cycle
    // admits everything, the default cadence behavior).
    if (auto trigger_filter = core::TriggerFilterFor(*preset.policy)) {
      stages.pre_orient_filters.push_back(std::move(trigger_filter));
    }
  }

  const engine::ClusterOptions& compaction =
      env->compaction_cluster().options();
  stages.traits = {
      std::make_shared<core::FileCountReductionTrait>(),
      std::make_shared<core::FileEntropyTrait>(),
      std::make_shared<core::ComputeCostTrait>(
          compaction.executor_memory_gb * compaction.executors,
          compaction.rewrite_bytes_per_hour),
  };

  stages.ranker = std::make_shared<core::MoopRanker>(
      std::vector<core::MoopRanker::Objective>{
          {"file_count_reduction", 0.7, false},
          {"compute_cost_gbhr", 0.3, true}});
  if (has_policy) {
    // Picker axis: replaces the decide-phase ranker.
    switch (preset.policy->picker) {
      case core::PickerAxis::kMoop:
        break;  // the MOOP ranker built above
      case core::PickerAxis::kSorted:
        stages.ranker = std::make_shared<core::SingleTraitRanker>(
            "file_count_reduction");
        break;
      case core::PickerAxis::kGreedySizeRatio:
        stages.ranker = std::make_shared<core::GreedySizeRatioRanker>();
        break;
      case core::PickerAxis::kOnlineMerge:
        stages.ranker = std::make_shared<core::OnlineMergeRanker>(
            static_cast<size_t>(preset.policy->picker_param));
        break;
    }
  }

  if (preset.budget_gb_hours.has_value()) {
    stages.selector = std::make_shared<core::BudgetedSelector>(
        *preset.budget_gb_hours, "compute_cost_gbhr");
  } else {
    stages.selector = std::make_shared<core::FixedKSelector>(preset.k);
  }

  // Deferred act leaves the executor null: the EventDriver acts on the
  // timeline.
  if (!preset.deferred_act) {
    stages.executor = std::make_shared<core::TableParallelExecutor>(
        &env->compaction_runner(), &env->control_plane());
  }
  if (has_policy) {
    // Movement axis: how much data each work unit rewrites, in either
    // act mode.
    stages.movement = core::MovementFor(*preset.policy);
    stages.policy_label = preset.policy->ToString();
  }

  auto pipeline = std::make_unique<core::AutoCompPipeline>(
      std::move(stages), &env->catalog(), &env->clock());
  return std::make_unique<core::AutoCompService>(
      std::move(pipeline),
      core::PeriodicTrigger(preset.trigger_interval, preset.first_trigger));
}

}  // namespace autocomp::sim
