/// \file traits.h
/// \brief Orient phase: traits describing a candidate's compaction
/// benefit or cost (§4.2).
///
/// Traits are independent of one another and combined only at ranking
/// time. A trait is either a *benefit* (higher = more attractive) or a
/// *cost* (higher = less attractive); the MOOP ranker subtracts
/// normalized costs from normalized benefits.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/candidate.h"

namespace autocomp::core {

/// \brief One decision helper computed from observed statistics.
class Trait {
 public:
  virtual ~Trait() = default;
  virtual std::string name() const = 0;
  /// Costs are subtracted by the MOOP ranking (§4.3).
  virtual bool is_cost() const { return false; }
  virtual double Compute(const ObservedCandidate& candidate) const = 0;
};

/// \brief Estimated file count reduction ΔF_c (§4.2):
///   ΔF_c = Σ_i 1(FileSize_i < TargetFileSize).
///
/// This is the paper's production estimator. It ignores partition
/// boundaries, which §7 reports as a source of overestimation (~28% in
/// one production sample); see PartitionAwareFileCountReductionTrait.
class FileCountReductionTrait final : public Trait {
 public:
  std::string name() const override { return "file_count_reduction"; }
  double Compute(const ObservedCandidate& candidate) const override;
};

/// \brief Partition-aware ΔF estimate: per partition, small files can
/// merge only with each other, and the merged data still needs
/// ceil(bytes/target) output files:
///   ΔF = Σ_p (small_p - ceil(small_bytes_p / target)).
/// Used by the estimator-accuracy experiments (§7).
class PartitionAwareFileCountReductionTrait final : public Trait {
 public:
  std::string name() const override {
    return "file_count_reduction_partition_aware";
  }
  double Compute(const ObservedCandidate& candidate) const override;
};

/// \brief Fraction of the candidate's files that are small; the relative
/// variant used for threshold triggers ("trigger compaction when the
/// estimated file count reduction reaches at least 10%", §4.3).
class SmallFileRatioTrait final : public Trait {
 public:
  std::string name() const override { return "small_file_ratio"; }
  double Compute(const ObservedCandidate& candidate) const override;
};

/// \brief File entropy (Netflix's auto-optimize trait [65], referenced in
/// §4.2 and tuned in §6.3): mean squared deviation of small files from
/// the target size, normalized by target², in [0, 1]:
///   E = (1/N) Σ_{size_i < target} ((target - size_i) / target)².
/// 0 = perfectly laid out; values near 1 = mostly tiny files.
class FileEntropyTrait final : public Trait {
 public:
  std::string name() const override { return "file_entropy"; }
  double Compute(const ObservedCandidate& candidate) const override;
};

/// \brief Layout-optimization benefit (§8, "Automatic Data Layout
/// Optimization"): bytes stored without a clustering layout. A clustering
/// rewrite converts these into row-group-skippable files; selective scans
/// then read only the matching fraction. Pair with ComputeCostTrait
/// scaled by the clustering write multiplier for a §8-style cost/benefit
/// analysis.
class ClusteringBenefitTrait final : public Trait {
 public:
  std::string name() const override { return "unclustered_bytes"; }
  double Compute(const ObservedCandidate& candidate) const override;
};

/// \brief Workload-aware benefit (§8, "Workload Awareness"): the file
/// count reduction weighted by how often the table is actually read,
///   ΔF_weighted = ΔF × log2(1 + read_count),
/// so the framework prioritizes hot tables whose scans actually pay for
/// the fragmentation. Reads come from the observe phase's custom metric
/// "read_count" (0 when the platform cannot provide it, degrading to a
/// zero trait — cold tables drop to the bottom of the ranking).
class WorkloadAwareReductionTrait final : public Trait {
 public:
  std::string name() const override {
    return "workload_aware_file_count_reduction";
  }
  double Compute(const ObservedCandidate& candidate) const override;
};

/// \brief Number of MoR delete (delta) files pending merge. Hive-style
/// deployments trigger compaction on delta-file-count thresholds (§9,
/// "compaction triggered by thresholds for delta file counts"); folding
/// them both shrinks metadata and removes the per-scan merge penalty.
class DeleteFileCountTrait final : public Trait {
 public:
  std::string name() const override { return "delete_file_count"; }
  double Compute(const ObservedCandidate& candidate) const override;
};

/// \brief Magnitude-aware entropy: the SUM (not mean) of squared relative
/// deviations over small files,
///   E_total = Σ_{size_i < target} ((target - size_i) / target)².
/// Unlike FileEntropyTrait it grows with the amount of fragmentation, so
/// a single threshold can separate "huge fragmented table" from "small
/// table with a few stray files" — the regime the §6.3 tuner needs.
class TotalFileEntropyTrait final : public Trait {
 public:
  std::string name() const override { return "file_entropy_total"; }
  double Compute(const ObservedCandidate& candidate) const override;
};

/// \brief Estimated compute cost (§4.2):
///   GBHr_c = ExecutorMemoryGB × DataSize_c / RewriteBytesPerHour,
/// where DataSize_c sums the candidate's small files (the bytes a rewrite
/// touches).
class ComputeCostTrait final : public Trait {
 public:
  ComputeCostTrait(double executor_memory_gb, double rewrite_bytes_per_hour)
      : executor_memory_gb_(executor_memory_gb),
        rewrite_bytes_per_hour_(rewrite_bytes_per_hour) {}

  std::string name() const override { return "compute_cost_gbhr"; }
  bool is_cost() const override { return true; }
  double Compute(const ObservedCandidate& candidate) const override;

 private:
  double executor_memory_gb_;
  double rewrite_bytes_per_hour_;
};

/// \brief Computes all traits for a candidate pool (orient phase).
///
/// Takes the pool by value: each candidate's stats move into the traited
/// output rather than being deep-copied (pass std::move when the caller
/// is done with them).
std::vector<TraitedCandidate> ComputeTraits(
    std::vector<ObservedCandidate> candidates,
    const std::vector<std::shared_ptr<const Trait>>& traits);

}  // namespace autocomp::core
