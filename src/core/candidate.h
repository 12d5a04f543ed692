/// \file candidate.h
/// \brief Compaction candidates: the unit of work flowing through the
/// OODA pipeline (paper §3.3, §4.1).

#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/interner.h"
#include "common/units.h"

namespace autocomp::core {

/// \brief Granularity of a candidate (§4.1). Partition scope enables
/// parallel sub-table work units (FR1); snapshot scope targets freshly
/// written data.
enum class CandidateScope : int { kTable, kPartition, kSnapshot };

const char* CandidateScopeName(CandidateScope scope);

/// \brief A collection of files eligible for compaction.
struct Candidate {
  std::string table;  // "db.table"
  CandidateScope scope = CandidateScope::kTable;
  /// Set for kPartition scope.
  std::optional<std::string> partition;
  /// For kSnapshot scope: only files added after this snapshot id.
  int64_t after_snapshot_id = 0;
  /// Interned table id, stamped by whichever driver owns the candidate
  /// (see common/interner.h). A transport hint for hot paths that have
  /// already interned `table` — ids are meaningful only within the
  /// interner that assigned them, so this is excluded from equality and
  /// id(). kInvalidId when no driver has stamped it.
  common::TableId table_id = common::StringInterner::kInvalidId;

  /// Stable identifier used for deterministic tie-breaking and reporting.
  std::string id() const {
    std::string out = table;
    if (partition) out += "/" + *partition;
    if (after_snapshot_id > 0) {
      out += "@>" + std::to_string(after_snapshot_id);
    }
    return out;
  }

  bool operator==(const Candidate& other) const {
    return table == other.table && scope == other.scope &&
           partition == other.partition &&
           after_snapshot_id == other.after_snapshot_id;
  }
};

/// \brief An immutable, shared list of file sizes, sorted ascending.
///
/// Copies share one allocation, and nothing changes a list after it is
/// built: a holder keeps reading the same sizes however the table moves
/// on. The stats index hands its own lists to every observation of an
/// unchanged table version this way. Default-constructed lists are
/// empty.
class SizeList {
 public:
  using value_type = int64_t;
  using const_iterator = std::vector<int64_t>::const_iterator;

  SizeList() = default;
  /// Sorts `sizes` unless they are already in ascending order.
  SizeList(std::vector<int64_t> sizes);  // NOLINT
  SizeList(std::initializer_list<int64_t> sizes)
      : SizeList(std::vector<int64_t>(sizes)) {}

  const std::vector<int64_t>& values() const {
    static const std::vector<int64_t> kEmpty;
    return sizes_ != nullptr ? *sizes_ : kEmpty;
  }
  const_iterator begin() const { return values().begin(); }
  const_iterator end() const { return values().end(); }
  size_t size() const { return values().size(); }
  bool empty() const { return values().empty(); }

  friend bool operator==(const SizeList& a, const SizeList& b) {
    return a.values() == b.values();
  }

 private:
  std::shared_ptr<const std::vector<int64_t>> sizes_;
};

inline SizeList::SizeList(std::vector<int64_t> sizes) {
  if (sizes.empty()) return;
  if (!std::is_sorted(sizes.begin(), sizes.end())) {
    std::sort(sizes.begin(), sizes.end());
  }
  sizes_ = std::make_shared<const std::vector<int64_t>>(std::move(sizes));
}

/// \brief Sorted live file sizes per partition key.
using PartitionSizes = std::map<std::string, SizeList, std::less<>>;

/// \brief Standardized statistics layout produced by the observe phase
/// (§4.1): generic metrics all platforms can provide, plus a custom bag
/// for platform-specific metrics.
struct CandidateStats {
  /// Generic metrics.
  int64_t file_count = 0;
  int64_t total_bytes = 0;
  /// Immutable and shared, like the partition map below.
  SizeList file_sizes;
  int64_t target_file_size_bytes = 512 * kMiB;
  SimTime table_created_at = 0;
  SimTime last_modified_at = 0;
  /// Distinct partitions covered by the candidate's files (1 for
  /// partition scope; >=1 for table scope). Partition-aware estimators
  /// need the per-partition breakdown. Immutable and shared: the stats
  /// index hands one map to every observation of an unchanged table
  /// version. Read it through partition_sizes(); null reads as empty.
  std::shared_ptr<const PartitionSizes> file_sizes_by_partition;

  /// MoR delta files pending merge (Hive-style delta-count triggers key
  /// off this; compaction folds them away).
  int64_t delete_file_count = 0;
  /// Bytes in files without a clustering layout — the raw material for
  /// §8's layout-optimization extension.
  int64_t unclustered_bytes = 0;

  /// Tenant signals (the production w1 weighting, §7).
  double quota_utilization = 0.0;

  /// Custom, platform-specific metrics (access frequency, usage, ...).
  Config custom;

  const PartitionSizes& partition_sizes() const {
    static const PartitionSizes kEmpty;
    return file_sizes_by_partition != nullptr ? *file_sizes_by_partition
                                              : kEmpty;
  }

  int64_t small_file_count() const {
    int64_t n = 0;
    for (int64_t s : file_sizes) {
      if (s < target_file_size_bytes) ++n;
    }
    return n;
  }
  int64_t small_file_bytes() const {
    int64_t n = 0;
    for (int64_t s : file_sizes) {
      if (s < target_file_size_bytes) n += s;
    }
    return n;
  }
};

/// \brief Candidate + its observed statistics (observe-phase output).
struct ObservedCandidate {
  Candidate candidate;
  CandidateStats stats;
};

/// \brief Candidate + computed traits (orient-phase output).
struct TraitedCandidate {
  ObservedCandidate observed;
  /// Trait name -> raw (unnormalized) value.
  std::map<std::string, double> traits;
};

/// \brief Candidate ranked by the decide phase.
struct ScoredCandidate {
  TraitedCandidate traited;
  /// Scalarized MOOP score (higher = compact first).
  double score = 0.0;

  const Candidate& candidate() const { return traited.observed.candidate; }
};

}  // namespace autocomp::core
