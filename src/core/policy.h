/// \file policy.h
/// \brief The composable compaction-policy design space.
///
/// The LSM compaction-design-space analysis (Sarkar et al.) decomposes
/// any compaction policy into four orthogonal axes: *when* to trigger,
/// at *what granularity* to act, *how much data to move*, and *which
/// files to pick*. AutoComp's OODA pipeline already contains one
/// primitive per axis (the hourly periodic trigger, table-scope
/// candidates, binpacked partial rewrites, the MOOP ranker); this module
/// names the axes explicitly and makes every combination addressable by
/// a stable `PolicySpec` string, e.g.
///
///   trigger=file-count:16;granularity=table;movement=partial;picker=moop
///
/// so the §6.3 tuning loop can search policy *shapes* instead of scalar
/// knobs, tables can carry a policy override in the catalog
/// (catalog::TablePolicy::compaction_policy), and the sweep bench can
/// walk the cross-product. The default-constructed spec reproduces the
/// pre-decomposition pipeline bit for bit (tests/policy_diff_test.cc).

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/filters.h"
#include "core/ranking.h"

namespace autocomp::engine {
enum class RewriteMovement : int;
}  // namespace autocomp::engine

namespace autocomp::core {

/// \brief Trigger axis: the per-candidate admission rule deciding *when*
/// accumulated debt is worth acting on. Implemented as pre-orient
/// filters, so every trigger composes with any scope/ranker/executor.
enum class TriggerAxis : int {
  /// Every service cycle considers every candidate (the paper's hourly
  /// evaluation setting). The default; adds no filter.
  kPeriodic,
  /// Fire once a candidate holds at least N small files (Iceberg's
  /// min-input-files; Bigtable's "stack size" trigger).
  kFileCount,
  /// Fire once small-file bytes are at least 1/R of the already-compact
  /// bytes (an LSM size-ratio/tiering trigger).
  kSizeRatio,
  /// Fire once the candidate has been write-quiescent for H hours with
  /// debt outstanding (compact cold data; dodges write-write conflicts).
  kStaleness,
  /// Staleness with a burst bypass: quiesced debt compacts after H
  /// hours, but a large backlog (>= 16 small files) fires immediately.
  kDeadline,
};

/// \brief Granularity axis: the scope candidates are generated at.
/// Maps onto the existing generators (partition / table / hybrid); the
/// "fleet" granularity is the hybrid mixed-scope pool over every table
/// the control plane sees.
enum class GranularityAxis : int { kPartition, kTable, kFleet };

/// \brief File-picking axis: the decide-phase ranking primitive.
enum class PickerAxis : int {
  /// Weighted multi-objective scalarization (the paper's §4.3 ranker).
  kMoop,
  /// Single-trait sort by estimated file-count reduction.
  kSorted,
  /// Greedy size-ratio: rank by small-file byte fraction.
  kGreedySizeRatio,
  /// Bigtable-style k-way online merge pressure (see merge_policy.h);
  /// requires movement=merge. Param = stack budget k (default 4).
  kOnlineMerge,
};

/// \brief One point in the four-axis design space, with per-axis
/// parameters. Equality is structural; ToString() is canonical (fixed
/// key order) and Parse(ToString(s)) == s for every valid spec.
struct PolicySpec {
  TriggerAxis trigger = TriggerAxis::kPeriodic;
  /// kFileCount: N (>= 2). kSizeRatio: R (> 1). kStaleness/kDeadline:
  /// hours (> 0). kPeriodic: unused (must be 0).
  double trigger_param = 0;
  GranularityAxis granularity = GranularityAxis::kTable;
  engine::RewriteMovement movement;  // default set in the constructor
  PickerAxis picker = PickerAxis::kMoop;
  /// kOnlineMerge: stack budget k (>= 2). Other pickers: unused (0).
  double picker_param = 0;

  PolicySpec();

  /// The spec reproducing the pre-decomposition pipeline exactly:
  /// periodic / table / partial / moop.
  static PolicySpec Default();

  /// Canonical string form, e.g.
  /// "trigger=size-ratio:4;granularity=table;movement=merge;picker=moop".
  /// Parameters are omitted when they equal the axis default.
  std::string ToString() const;

  /// Structured parse failure: which axis, which token, and why.
  struct ParseError {
    std::string axis;    // "trigger", "granularity", "movement", "picker"
    std::string token;   // the offending input fragment
    std::string reason;  // "unknown-key" | "duplicate-key" | "missing-key" |
                         // "unknown-value" | "bad-param" |
                         // "param-out-of-range" | "invalid-combination"
  };

  /// Parses a spec string (any key order; all four keys required).
  /// On failure returns InvalidArgument and, when `error` is non-null,
  /// fills the structured reason.
  static Result<PolicySpec> Parse(const std::string& text,
                                  ParseError* error = nullptr);

  /// Checks parameter ranges and cross-axis constraints (the only
  /// invalid combination today: picker=online-merge requires
  /// movement=merge — the merge ranker scores k-way merge pressure,
  /// which only the tiering-style movement realizes).
  Status Validate(ParseError* error = nullptr) const;

  bool operator==(const PolicySpec& other) const;
  bool operator!=(const PolicySpec& other) const {
    return !(*this == other);
  }
};

const char* TriggerAxisName(TriggerAxis trigger);
const char* GranularityAxisName(GranularityAxis granularity);
const char* PickerAxisName(PickerAxis picker);

/// \brief Default parameter for a trigger kind (what ToString omits):
/// file-count 16, size-ratio 4, staleness 6 h, deadline 24 h, periodic 0.
double DefaultTriggerParam(TriggerAxis trigger);
/// \brief Default parameter for a picker kind (online-merge k = 4).
double DefaultPickerParam(PickerAxis picker);

/// \brief The trigger-axis filter for `spec` (nullptr for kPeriodic —
/// the periodic trigger is the absence of an admission filter; the
/// service's own PeriodicTrigger provides the cadence).
std::shared_ptr<const CandidateFilter> TriggerFilterFor(
    const PolicySpec& spec);

/// \brief The data-movement request mode for `spec`.
engine::RewriteMovement MovementFor(const PolicySpec& spec);

/// \brief Options for EnumerateValidSpecs.
struct EnumerateOptions {
  /// When false (default), granularity is pinned to kTable so the
  /// enumeration is exactly the (trigger x movement x picker)
  /// cross-product the sweep bench walks. When true, all three
  /// granularities are included.
  bool all_granularities = false;
};

/// \brief Every valid PolicySpec (axis defaults for parameters), in a
/// deterministic order. With granularity pinned this is 5 triggers x
/// (3 movements x 3 movement-agnostic pickers + the merge-only
/// online-merge picker) = 50 specs.
std::vector<PolicySpec> EnumerateValidSpecs(EnumerateOptions options = {});

}  // namespace autocomp::core
