/// \file fleet_experiment.h
/// \brief Shared harness for the §7 production-deployment experiments: a
/// scaled-down LinkedIn-like table fleet driven day by day under a
/// sequence of compaction regimes (none → manual top-100 → AutoComp).
/// Figures 2, 10 and 11 are different views of these runs.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "sim/driver.h"
#include "sim/environment.h"
#include "sim/metrics.h"
#include "sim/presets.h"
#include "workload/fleet.h"

namespace autocomp::bench {

/// \brief Compaction regime for a span of days.
struct FleetPhase {
  std::string label;  // "none", "manual-100", "auto-10", "auto-budget"
  int days = 7;
  enum class Mode { kNone, kManualFixed, kAutoFixedK, kAutoBudget } mode =
      Mode::kNone;
  /// kManualFixed: size of the fixed table set (chosen once, at phase
  /// start, by current small-file count — the paper's "susceptibility").
  /// kAutoFixedK: the top-k of each daily run.
  int64_t k = 10;
  /// kAutoBudget: daily GBHr budget (dynamic k).
  double budget_gb_hours = 0;
};

/// \brief Per-day record of what compaction did.
struct FleetDayStats {
  int day = 0;
  std::string phase;
  int64_t tables_compacted = 0;   // committed units (the day's k)
  int64_t files_reduced = 0;
  double gb_hours = 0;
  int64_t fleet_file_count = 0;   // at end of day
  int64_t open_calls = 0;         // storage open() calls during the day
  /// Daily scan workload aggregates (Figure 11a).
  int64_t files_scanned = 0;
  double query_seconds = 0;
  double query_gb_hours = 0;
  /// Fleet-wide % of files below 128MiB at end of day (Figure 2).
  double pct_small = 0;
};

/// \brief Runs the fleet through `phases`, returning one record per day.
/// `histograms_out`, when given, receives the end-of-phase file-size
/// histograms (Figure 2's distribution snapshots).
std::vector<FleetDayStats> RunFleetExperiment(
    const std::vector<FleetPhase>& phases,
    std::vector<std::pair<std::string, SizeHistogram>>* histograms_out =
        nullptr,
    workload::FleetOptions fleet_options = {});

}  // namespace autocomp::bench
