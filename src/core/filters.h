/// \file filters.h
/// \brief Optional filtering stages between the OODA phases (§3.3, §4.1).
///
/// Filters refine the candidate pool using observed statistics and
/// platform knowledge: skip tables that are too new or too small, avoid
/// hot tables to dodge write-write conflicts, and allow arbitrary
/// deployment-specific predicates.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/units.h"
#include "core/candidate.h"

namespace autocomp::core {

/// \brief Predicate over observed candidates. Returning false drops the
/// candidate from the pipeline.
class CandidateFilter {
 public:
  virtual ~CandidateFilter() = default;
  virtual std::string name() const = 0;
  virtual bool ShouldKeep(const ObservedCandidate& candidate,
                          SimTime now) const = 0;
};

/// \brief Drops tables created within the last `min_age` (OpenHouse skips
/// recently created tables to avoid spending budget on short-lived data,
/// §4.1).
class RecentCreationFilter final : public CandidateFilter {
 public:
  explicit RecentCreationFilter(SimTime min_age) : min_age_(min_age) {}
  std::string name() const override { return "recent-creation"; }
  bool ShouldKeep(const ObservedCandidate& candidate,
                  SimTime now) const override {
    return now - candidate.stats.table_created_at >= min_age_;
  }

 private:
  SimTime min_age_;
};

/// \brief Drops candidates below a minimum total size ("skip tables that
/// are too small", §3.3).
class MinSizeFilter final : public CandidateFilter {
 public:
  explicit MinSizeFilter(int64_t min_total_bytes)
      : min_total_bytes_(min_total_bytes) {}
  std::string name() const override { return "min-size"; }
  bool ShouldKeep(const ObservedCandidate& candidate,
                  SimTime) const override {
    return candidate.stats.total_bytes >= min_total_bytes_;
  }

 private:
  int64_t min_total_bytes_;
};

/// \brief Drops candidates with fewer than `min_count` files below the
/// target size — there is nothing to gain from compacting them.
class MinSmallFilesFilter final : public CandidateFilter {
 public:
  explicit MinSmallFilesFilter(int64_t min_count) : min_count_(min_count) {}
  std::string name() const override { return "min-small-files"; }
  bool ShouldKeep(const ObservedCandidate& candidate,
                  SimTime) const override {
    return candidate.stats.small_file_count() >= min_count_;
  }

 private:
  int64_t min_count_;
};

/// \brief Drops candidates written within the last `quiesce_window` to
/// reduce the chance of a write-write conflict aborting the rewrite
/// ("verify whether a compaction candidate has undergone recent frequent
/// writes", §3.3).
class RecentWriteActivityFilter final : public CandidateFilter {
 public:
  explicit RecentWriteActivityFilter(SimTime quiesce_window)
      : quiesce_window_(quiesce_window) {}
  std::string name() const override { return "recent-write-activity"; }
  bool ShouldKeep(const ObservedCandidate& candidate,
                  SimTime now) const override {
    return now - candidate.stats.last_modified_at >= quiesce_window_;
  }

 private:
  SimTime quiesce_window_;
};

/// \brief Wraps an arbitrary deployment-specific predicate (NFR1).
class PredicateFilter final : public CandidateFilter {
 public:
  PredicateFilter(std::string name,
                  std::function<bool(const ObservedCandidate&, SimTime)> fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}
  std::string name() const override { return name_; }
  bool ShouldKeep(const ObservedCandidate& candidate,
                  SimTime now) const override {
    return fn_(candidate, now);
  }

 private:
  std::string name_;
  std::function<bool(const ObservedCandidate&, SimTime)> fn_;
};

/// \brief Applies a filter chain in order; returns survivors (stable).
/// Takes the pool by value and moves survivors through — an empty filter
/// chain is a no-op pass-through (pass std::move to avoid the copy).
std::vector<ObservedCandidate> ApplyFilters(
    std::vector<ObservedCandidate> candidates,
    const std::vector<std::shared_ptr<const CandidateFilter>>& filters,
    SimTime now, int64_t* dropped = nullptr);

}  // namespace autocomp::core
