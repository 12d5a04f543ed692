#include "core/observe.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <optional>
#include <utility>

#include "core/stats_index.h"
#include "lst/metadata_tables.h"

namespace autocomp::core {

namespace {

/// Sorted-by-id candidate list (determinism, NFR2). Ids are materialized
/// once per candidate — id() builds a string, and calling it inside the
/// comparator allocated twice per comparison at fleet scale.
std::vector<Candidate> Sorted(std::vector<Candidate> candidates) {
  std::vector<std::pair<std::string, size_t>> keys;
  keys.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    keys.emplace_back(candidates[i].id(), i);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<Candidate> out;
  out.reserve(candidates.size());
  for (const auto& [_, i] : keys) out.push_back(std::move(candidates[i]));
  return out;
}

using PerTableFn = std::function<Status(
    catalog::Catalog*, const std::string&, std::vector<Candidate>*)>;

/// Shared generator skeleton: runs `per_table` over every table in the
/// fleet, in table order, and sorts the result. The first failing table
/// aborts generation with its status.
Result<std::vector<Candidate>> GeneratePerTable(catalog::Catalog* catalog,
                                                const PerTableFn& per_table) {
  std::vector<Candidate> out;
  for (const std::string& name : catalog->ListAllTables()) {
    AUTOCOMP_RETURN_NOT_OK(per_table(catalog, name, &out));
  }
  return Sorted(std::move(out));
}

}  // namespace

const char* CandidateScopeName(CandidateScope scope) {
  switch (scope) {
    case CandidateScope::kTable:
      return "table";
    case CandidateScope::kPartition:
      return "partition";
    case CandidateScope::kSnapshot:
      return "snapshot";
  }
  return "unknown";
}

Result<std::vector<Candidate>> TableScopeGenerator::Generate(
    catalog::Catalog* catalog) const {
  return GeneratePerTable(
      catalog,
      [](catalog::Catalog*, const std::string& name,
         std::vector<Candidate>* out) {
        Candidate c;
        c.table = name;
        c.scope = CandidateScope::kTable;
        out->push_back(std::move(c));
        return Status::OK();
      });
}

namespace {

/// Live partition keys of `name` at the pinned metadata version: O(1)
/// from the index when available and current, manifest walk otherwise.
/// Both orders are lexicographic, so output is identical (NFR2).
std::vector<std::string> LivePartitionsFor(
    const IncrementalStatsIndex* index, const std::string& name,
    const lst::TableMetadataPtr& meta) {
  if (index != nullptr) {
    auto indexed = index->LivePartitions(name, meta);
    if (indexed.has_value()) return std::move(*indexed);
  }
  return meta->LivePartitions();
}

}  // namespace

PartitionScopeGenerator::PartitionScopeGenerator(
    std::shared_ptr<const IncrementalStatsIndex> index)
    : index_(std::move(index)) {}

Result<std::vector<Candidate>> PartitionScopeGenerator::Generate(
    catalog::Catalog* catalog) const {
  return GeneratePerTable(
      catalog,
      [this](catalog::Catalog* cat, const std::string& name,
             std::vector<Candidate>* out) {
        AUTOCOMP_ASSIGN_OR_RETURN(lst::TableMetadataPtr meta,
                                  cat->LoadTable(name));
        if (!meta->partition_spec().is_partitioned()) return Status::OK();
        for (std::string& partition :
             LivePartitionsFor(index_.get(), name, meta)) {
          Candidate c;
          c.table = name;
          c.scope = CandidateScope::kPartition;
          c.partition = std::move(partition);
          out->push_back(std::move(c));
        }
        return Status::OK();
      });
}

HybridScopeGenerator::HybridScopeGenerator(
    std::shared_ptr<const IncrementalStatsIndex> index)
    : index_(std::move(index)) {}

Result<std::vector<Candidate>> HybridScopeGenerator::Generate(
    catalog::Catalog* catalog) const {
  return GeneratePerTable(
      catalog,
      [this](catalog::Catalog* cat, const std::string& name,
             std::vector<Candidate>* out) {
        AUTOCOMP_ASSIGN_OR_RETURN(lst::TableMetadataPtr meta,
                                  cat->LoadTable(name));
        if (meta->partition_spec().is_partitioned()) {
          for (std::string& partition :
               LivePartitionsFor(index_.get(), name, meta)) {
            Candidate c;
            c.table = name;
            c.scope = CandidateScope::kPartition;
            c.partition = std::move(partition);
            out->push_back(std::move(c));
          }
        } else {
          Candidate c;
          c.table = name;
          c.scope = CandidateScope::kTable;
          out->push_back(std::move(c));
        }
        return Status::OK();
      });
}

SnapshotScopeGenerator::SnapshotScopeGenerator(
    std::shared_ptr<const IncrementalStatsIndex> index)
    : index_(std::move(index)) {}

Result<std::vector<Candidate>> SnapshotScopeGenerator::Generate(
    catalog::Catalog* catalog) const {
  return GeneratePerTable(
      catalog,
      [this](catalog::Catalog* cat, const std::string& name,
             std::vector<Candidate>* out) {
        AUTOCOMP_ASSIGN_OR_RETURN(lst::TableMetadataPtr meta,
                                  cat->LoadTable(name));
        // Files added after the most recent replace (compaction) snapshot.
        std::optional<int64_t> last_replace;
        if (index_ != nullptr) {
          last_replace = index_->LastReplaceSnapshotId(name, meta);
        }
        if (!last_replace.has_value()) {
          int64_t scanned = 0;
          for (const lst::Snapshot& s : meta->snapshots()) {
            if (s.operation == lst::SnapshotOperation::kReplace) {
              scanned = std::max(scanned, s.snapshot_id);
            }
          }
          last_replace = scanned;
        }
        Candidate c;
        c.table = name;
        c.scope = CandidateScope::kSnapshot;
        c.after_snapshot_id = *last_replace;
        out->push_back(std::move(c));
        return Status::OK();
      });
}

StatsCollector::StatsCollector(catalog::Catalog* catalog,
                               const catalog::ControlPlane* control_plane,
                               const Clock* clock)
    : catalog_(catalog), control_plane_(control_plane), clock_(clock) {
  assert(catalog_ != nullptr && clock_ != nullptr);
}

Result<CandidateStats> StatsCollector::Collect(
    const Candidate& candidate) const {
  AUTOCOMP_ASSIGN_OR_RETURN(lst::TableMetadataPtr meta,
                            catalog_->LoadTable(candidate.table));
  return CollectFromMetadata(candidate, meta);
}

Result<CandidateStats> StatsCollector::CollectFromMetadata(
    const Candidate& candidate, const lst::TableMetadataPtr& meta) const {
  CandidateStats stats;
  stats.table_created_at = meta->created_at();
  stats.last_modified_at = meta->last_updated_at();

  std::vector<int64_t> sizes;
  std::map<std::string, std::vector<int64_t>, std::less<>> by_partition;
  const auto accumulate = [&stats, &sizes,
                           &by_partition](const lst::DataFileRef& f) {
    sizes.push_back(f.file_size_bytes);
    stats.total_bytes += f.file_size_bytes;
    auto bucket = by_partition.find(f.partition);
    if (bucket == by_partition.end()) {
      bucket = by_partition.emplace(std::string(f.partition),
                                    std::vector<int64_t>{}).first;
    }
    bucket->second.push_back(f.file_size_bytes);
    if (f.content == lst::FileContent::kPositionDeletes) {
      ++stats.delete_file_count;
    }
    if (!f.clustered) stats.unclustered_bytes += f.file_size_bytes;
  };
  switch (candidate.scope) {
    case CandidateScope::kTable:
      // Visit manifests in place; copying LiveFiles() per candidate was
      // the observe phase's dominant allocation at fleet scale.
      sizes.reserve(meta->live_file_count());
      meta->ForEachLiveFile(accumulate);
      break;
    case CandidateScope::kPartition:
      meta->ForEachLiveFile(accumulate, candidate.partition);
      break;
    case CandidateScope::kSnapshot: {
      lst::MetadataTables tables(meta);
      tables.ForEachFileAddedAfter(candidate.after_snapshot_id, accumulate);
      break;
    }
  }

  // Canonical ordering (see class comment): SizeList sorts the sizes, so
  // rescans and the incremental index agree byte for byte — including
  // the float-summation order of the entropy traits.
  stats.file_sizes = SizeList(std::move(sizes));
  stats.file_count = static_cast<int64_t>(stats.file_sizes.size());
  PartitionSizes frozen;
  for (auto& [key, partition_sizes] : by_partition) {
    frozen.emplace_hint(frozen.end(), key,
                        SizeList(std::move(partition_sizes)));
  }
  stats.file_sizes_by_partition =
      std::make_shared<const PartitionSizes>(std::move(frozen));

  RefreshVolatile(candidate, *meta, &stats);
  return stats;
}

void StatsCollector::RefreshVolatile(const Candidate& candidate,
                                     const lst::TableMetadata& meta,
                                     CandidateStats* stats) const {
  // The control-plane target size (policy edits), the database quota
  // (commits to sibling tables), and access telemetry all change without
  // the table's snapshot moving; deriving them here keeps index-hit
  // output byte-identical to a fresh collection.
  stats->target_file_size_bytes = meta.target_file_size_bytes();
  if (control_plane_ != nullptr) {
    stats->target_file_size_bytes =
        control_plane_->GetPolicy(candidate.table).target_file_size_bytes;
  }

  auto db = catalog::SplitQualifiedName(candidate.table);
  if (db.ok()) {
    const storage::QuotaStatus quota = catalog_->DatabaseQuota(db->first);
    stats->quota_utilization = quota.utilization();
  }

  // Custom metrics (§4.1: "candidate access patterns and usage metrics —
  // information that may not be available in all systems").
  const catalog::TableAccessStats access =
      catalog_->GetAccessStats(candidate.table);
  stats->custom.SetInt("read_count", access.read_count);
  stats->custom.SetInt("last_read_at", access.last_read_at);
}

Result<std::vector<ObservedCandidate>> StatsCollector::CollectAll(
    const std::vector<Candidate>& candidates) const {
  std::vector<ObservedCandidate> out;
  out.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    AUTOCOMP_ASSIGN_OR_RETURN(CandidateStats stats, Collect(c));
    out.push_back(ObservedCandidate{c, std::move(stats)});
  }
  return out;
}

}  // namespace autocomp::core
