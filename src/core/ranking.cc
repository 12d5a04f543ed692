#include "core/ranking.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "core/merge_policy.h"

namespace autocomp::core {

namespace {

/// Deterministic descending-score ordering with id tie-break (NFR2).
void SortByScore(std::vector<ScoredCandidate>* candidates) {
  std::sort(candidates->begin(), candidates->end(),
            [](const ScoredCandidate& a, const ScoredCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.candidate().id() < b.candidate().id();
            });
}

double TraitOrZero(const TraitedCandidate& c, const std::string& name) {
  const auto it = c.traits.find(name);
  return it == c.traits.end() ? 0.0 : it->second;
}

}  // namespace

MoopRanker::MoopRanker(std::vector<Objective> objectives)
    : objectives_(std::move(objectives)) {
  double total = 0;
  for (const Objective& o : objectives_) total += o.weight;
  if (std::abs(total - 1.0) > 1e-6) {
    LOG_WARN << "MOOP weights sum to " << total << ", expected 1.0";
  }
}

MoopRanker MoopRanker::PaperDefault() {
  return MoopRanker({{"file_count_reduction", 0.7, /*is_cost=*/false},
                     {"compute_cost_gbhr", 0.3, /*is_cost=*/true}});
}

std::vector<ScoredCandidate> MoopRanker::Rank(
    std::vector<TraitedCandidate> candidates) const {
  // Min-max normalization per objective across the pool (§4.3).
  struct Range {
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  // Per-objective range, held alongside the objective so the scoring
  // loop below does no map lookups per candidate.
  std::vector<Range> ranges(objectives_.size());
  for (size_t i = 0; i < objectives_.size(); ++i) {
    Range& r = ranges[i];
    for (const TraitedCandidate& c : candidates) {
      const double v = TraitOrZero(c, objectives_[i].trait);
      r.min = std::min(r.min, v);
      r.max = std::max(r.max, v);
    }
  }

  std::vector<ScoredCandidate> out;
  out.reserve(candidates.size());
  for (TraitedCandidate& c : candidates) {
    double score = 0;
    for (size_t i = 0; i < objectives_.size(); ++i) {
      const Objective& o = objectives_[i];
      const Range& r = ranges[i];
      const double span = r.max - r.min;
      // Degenerate traits (all candidates identical) normalize to 0.
      const double normalized =
          span > 0 ? (TraitOrZero(c, o.trait) - r.min) / span : 0.0;
      score += (o.is_cost ? -1.0 : 1.0) * o.weight * normalized;
    }
    ScoredCandidate sc;
    sc.traited = std::move(c);
    sc.score = score;
    out.push_back(std::move(sc));
  }
  SortByScore(&out);
  return out;
}

std::vector<ScoredCandidate> SingleTraitRanker::Rank(
    std::vector<TraitedCandidate> candidates) const {
  std::vector<ScoredCandidate> out;
  out.reserve(candidates.size());
  for (TraitedCandidate& c : candidates) {
    ScoredCandidate sc;
    sc.score = TraitOrZero(c, trait_);
    sc.traited = std::move(c);
    out.push_back(std::move(sc));
  }
  SortByScore(&out);
  return out;
}

std::vector<ScoredCandidate> GreedySizeRatioRanker::Rank(
    std::vector<TraitedCandidate> candidates) const {
  std::vector<ScoredCandidate> out;
  out.reserve(candidates.size());
  for (TraitedCandidate& c : candidates) {
    const CandidateStats& stats = c.observed.stats;
    ScoredCandidate sc;
    sc.score = static_cast<double>(stats.small_file_bytes()) /
               static_cast<double>(std::max<int64_t>(1, stats.total_bytes));
    sc.traited = std::move(c);
    out.push_back(std::move(sc));
  }
  SortByScore(&out);
  return out;
}

std::vector<ScoredCandidate> OnlineMergeRanker::Rank(
    std::vector<TraitedCandidate> candidates) const {
  std::vector<ScoredCandidate> out;
  out.reserve(candidates.size());
  for (TraitedCandidate& c : candidates) {
    ScoredCandidate sc;
    sc.score = MergePressureScore(c.observed.stats.file_sizes.values(), k_);
    sc.traited = std::move(c);
    out.push_back(std::move(sc));
  }
  SortByScore(&out);
  return out;
}

bool ThresholdPolicy::ShouldCompact(const TraitedCandidate& candidate) const {
  return TraitOrZero(candidate, trait_) >= threshold_;
}

std::vector<TraitedCandidate> ThresholdPolicy::Triggered(
    const std::vector<TraitedCandidate>& candidates) const {
  std::vector<TraitedCandidate> out;
  for (const TraitedCandidate& c : candidates) {
    if (ShouldCompact(c)) out.push_back(c);
  }
  return out;
}

std::vector<ScoredCandidate> FixedKSelector::Select(
    const std::vector<ScoredCandidate>& ranked) const {
  const size_t k = k_ < 0 ? 0 : static_cast<size_t>(k_);
  std::vector<ScoredCandidate> out(
      ranked.begin(),
      ranked.begin() + static_cast<ptrdiff_t>(std::min(k, ranked.size())));
  return out;
}

std::vector<ScoredCandidate> BudgetedSelector::Select(
    const std::vector<ScoredCandidate>& ranked) const {
  std::vector<ScoredCandidate> out;
  double remaining = budget_;
  for (const ScoredCandidate& c : ranked) {
    const double cost = TraitOrZero(c.traited, cost_trait_);
    if (cost <= remaining) {
      out.push_back(c);
      remaining -= cost;
    } else if (!skip_unaffordable_) {
      break;
    }
    // Greedy knapsack: items that do not fit are skipped and the scan
    // continues — smaller lower-priority tasks can still use the budget.
  }
  return out;
}

std::vector<ScoredCandidate> KnapsackSelector::Select(
    const std::vector<ScoredCandidate>& ranked) const {
  if (ranked.empty() || budget_ <= 0) return {};
  // Discretize costs to `resolution_` buckets of the budget.
  const int capacity = std::max(1, resolution_);
  const double unit = budget_ / capacity;
  const size_t n = ranked.size();

  std::vector<int> cost(n);
  std::vector<double> value(n);
  for (size_t i = 0; i < n; ++i) {
    const double c = TraitOrZero(ranked[i].traited, cost_trait_);
    cost[i] = static_cast<int>(std::ceil(c / unit));
    // Scores can be negative (cost-dominant candidates); shift into a
    // non-negative range so the DP maximizes meaningfully but keep the
    // original ordering semantics by offsetting uniformly.
    value[i] = ranked[i].score;
  }
  double min_score = 0;
  for (double v : value) min_score = std::min(min_score, v);
  for (double& v : value) v += -min_score + 1e-9;

  // dp[w] = best total value at cost w; choice tracking for recovery.
  std::vector<double> dp(static_cast<size_t>(capacity) + 1, 0.0);
  std::vector<std::vector<bool>> take(
      n, std::vector<bool>(static_cast<size_t>(capacity) + 1, false));
  for (size_t i = 0; i < n; ++i) {
    if (cost[i] > capacity) continue;
    for (int w = capacity; w >= cost[i]; --w) {
      const double candidate_value =
          dp[static_cast<size_t>(w - cost[i])] + value[i];
      if (candidate_value > dp[static_cast<size_t>(w)]) {
        dp[static_cast<size_t>(w)] = candidate_value;
        take[i][static_cast<size_t>(w)] = true;
      }
    }
  }
  // Recover the chosen set.
  std::vector<ScoredCandidate> out;
  int w = capacity;
  for (size_t i = n; i-- > 0;) {
    if (w >= 0 && take[i][static_cast<size_t>(w)]) {
      out.push_back(ranked[i]);
      w -= cost[i];
    }
  }
  std::reverse(out.begin(), out.end());
  return out;
}

double QuotaAwareBenefitWeight(double quota_utilization) {
  const double u = std::clamp(quota_utilization, 0.0, 1.0);
  return 0.5 * (1.0 + u);
}

}  // namespace autocomp::core
