/// \file presets.h
/// \brief Ready-made AutoComp pipeline configurations matching the
/// paper's evaluated strategies (§6.1: TABLE-k and HYBRID-k with the
/// MOOP ranking at weights 0.7/0.3, hourly trigger) and the §7 production
/// deployment (daily, budgeted, quota-aware).

#pragma once

#include <cstddef>
#include <memory>
#include <optional>

#include "core/pipeline.h"
#include "core/policy.h"
#include "core/triggers.h"
#include "sim/environment.h"

namespace autocomp::sim {

/// \brief Candidate scoping strategy of §6.
enum class ScopeStrategy : int {
  kTable,
  kHybrid,
  kPartition,
  kSnapshot,
};

/// \brief Parameters for the standard MOOP pipeline.
struct StrategyPreset {
  ScopeStrategy scope = ScopeStrategy::kTable;
  /// Fixed top-k selection; ignored when `budget_gb_hours` is set.
  int64_t k = 10;
  /// When set, dynamic-k budgeted selection (§7, Figure 10b).
  std::optional<double> budget_gb_hours;
  SimTime trigger_interval = kHour;
  SimTime first_trigger = kHour;
  /// When true, the pipeline stops after decide (null executor) and the
  /// EventDriver executes the plan on the timeline — Prepare at unit
  /// start, commit at unit end — so rewrites genuinely overlap user
  /// writes. Requires DriverOptions::deferred_compaction.
  bool deferred_act = false;
  /// Always null: the pipeline runs each cycle sequentially. The field
  /// exists only for perfbench/perf_runner.cc's `preset.pool = nullptr`
  /// and goes with that line in the next change to the benchmark.
  std::nullptr_t pool = nullptr;
  /// Trace recorder for the pipeline's OODA phase spans and decision
  /// instants (not owned; must outlive the service). Usually the same
  /// recorder EnvironmentOptions::trace installs on the lower layers.
  obs::TraceRecorder* trace = nullptr;
  /// Composable policy point (core/policy.h). When set to anything other
  /// than PolicySpec::Default(), the spec's axes override the stage
  /// choices above: granularity overrides `scope`, the trigger axis
  /// appends its admission filter, the picker axis replaces the ranker,
  /// and the movement axis becomes the pipeline's Stages::movement, which
  /// both act modes build every compaction request with. Unset or
  /// Default() leaves the preset byte-identical to the pre-decomposition
  /// pipeline (tests/policy_diff_test.cc pins this).
  std::optional<core::PolicySpec> policy;
};

/// \brief Builds the full pipeline + periodic service over `env`'s
/// dedicated compaction cluster: tables with fewer than two small files
/// are filtered out, and the MOOP ranker weighs file-count reduction
/// 0.7 against compute cost 0.3 (§6.1). The returned service owns the
/// pipeline; stage objects are shared into it.
std::unique_ptr<core::AutoCompService> MakeMoopService(
    SimEnvironment* env, const StrategyPreset& preset);

}  // namespace autocomp::sim
