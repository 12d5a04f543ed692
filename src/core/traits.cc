#include "core/traits.h"

#include <algorithm>
#include <cmath>

namespace autocomp::core {

double FileCountReductionTrait::Compute(
    const ObservedCandidate& candidate) const {
  return static_cast<double>(candidate.stats.small_file_count());
}

double PartitionAwareFileCountReductionTrait::Compute(
    const ObservedCandidate& candidate) const {
  const CandidateStats& stats = candidate.stats;
  const int64_t target = std::max<int64_t>(1, stats.target_file_size_bytes);
  double reduction = 0;
  for (const auto& [partition, sizes] : stats.partition_sizes()) {
    int64_t small_count = 0;
    int64_t small_bytes = 0;
    for (int64_t s : sizes) {
      if (s < target) {
        ++small_count;
        small_bytes += s;
      }
    }
    if (small_count == 0) continue;
    const int64_t outputs = (small_bytes + target - 1) / target;
    reduction += static_cast<double>(
        std::max<int64_t>(0, small_count - outputs));
  }
  return reduction;
}

double SmallFileRatioTrait::Compute(const ObservedCandidate& candidate) const {
  const CandidateStats& stats = candidate.stats;
  if (stats.file_count == 0) return 0.0;
  return static_cast<double>(stats.small_file_count()) /
         static_cast<double>(stats.file_count);
}

double FileEntropyTrait::Compute(const ObservedCandidate& candidate) const {
  const CandidateStats& stats = candidate.stats;
  if (stats.file_sizes.empty()) return 0.0;
  const double target =
      static_cast<double>(std::max<int64_t>(1, stats.target_file_size_bytes));
  double acc = 0;
  for (int64_t size : stats.file_sizes) {
    if (size < stats.target_file_size_bytes) {
      const double deviation = (target - static_cast<double>(size)) / target;
      acc += deviation * deviation;
    }
  }
  return acc / static_cast<double>(stats.file_sizes.size());
}

double ClusteringBenefitTrait::Compute(
    const ObservedCandidate& candidate) const {
  return static_cast<double>(candidate.stats.unclustered_bytes);
}

double WorkloadAwareReductionTrait::Compute(
    const ObservedCandidate& candidate) const {
  const double reduction =
      static_cast<double>(candidate.stats.small_file_count());
  const double reads =
      static_cast<double>(candidate.stats.custom.GetInt("read_count", 0));
  return reduction * std::log2(1.0 + reads);
}

double DeleteFileCountTrait::Compute(
    const ObservedCandidate& candidate) const {
  return static_cast<double>(candidate.stats.delete_file_count);
}

double TotalFileEntropyTrait::Compute(
    const ObservedCandidate& candidate) const {
  const CandidateStats& stats = candidate.stats;
  const double target =
      static_cast<double>(std::max<int64_t>(1, stats.target_file_size_bytes));
  double acc = 0;
  for (int64_t size : stats.file_sizes) {
    if (size < stats.target_file_size_bytes) {
      const double deviation = (target - static_cast<double>(size)) / target;
      acc += deviation * deviation;
    }
  }
  return acc;
}

double ComputeCostTrait::Compute(const ObservedCandidate& candidate) const {
  const double data_bytes =
      static_cast<double>(candidate.stats.small_file_bytes());
  if (rewrite_bytes_per_hour_ <= 0) return 0.0;
  return executor_memory_gb_ * (data_bytes / rewrite_bytes_per_hour_);
}

std::vector<TraitedCandidate> ComputeTraits(
    std::vector<ObservedCandidate> candidates,
    const std::vector<std::shared_ptr<const Trait>>& traits) {
  std::vector<TraitedCandidate> out(candidates.size());
  // name() builds a fresh string per call; materialize each once instead
  // of once per candidate (the virtual call + heap alloc showed up at
  // fleet scale).
  std::vector<std::string> names;
  names.reserve(traits.size());
  for (const auto& trait : traits) names.push_back(trait->name());
  // The pool is consumed: each candidate's stats move into their slot
  // instead of being copied (size lists and the partition map are
  // shared; the custom bag is not).
  for (size_t i = 0; i < candidates.size(); ++i) {
    TraitedCandidate& tc = out[i];
    tc.observed = std::move(candidates[i]);
    auto hint = tc.traits.end();
    for (size_t j = 0; j < traits.size(); ++j) {
      hint = tc.traits.emplace_hint(hint, names[j],
                                    traits[j]->Compute(tc.observed));
    }
  }
  return out;
}

}  // namespace autocomp::core
