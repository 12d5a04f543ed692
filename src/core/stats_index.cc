#include "core/stats_index.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace autocomp::core {

// ---------------------------------------------------------------------------
// Aggregate / ScopeView

void IncrementalStatsIndex::Aggregate::Add(const lst::DataFile& f) {
  const auto it =
      std::upper_bound(sizes.begin(), sizes.end(), f.file_size_bytes);
  sizes.insert(it, f.file_size_bytes);
  total_bytes += f.file_size_bytes;
  if (f.content == lst::FileContent::kPositionDeletes) ++delete_file_count;
  if (!f.clustered) unclustered_bytes += f.file_size_bytes;
}

bool IncrementalStatsIndex::Aggregate::Remove(const lst::DataFile& f) {
  const auto it =
      std::lower_bound(sizes.begin(), sizes.end(), f.file_size_bytes);
  if (it == sizes.end() || *it != f.file_size_bytes) return false;
  sizes.erase(it);
  total_bytes -= f.file_size_bytes;
  if (f.content == lst::FileContent::kPositionDeletes) --delete_file_count;
  if (!f.clustered) unclustered_bytes -= f.file_size_bytes;
  return true;
}

void IncrementalStatsIndex::ScopeView::Add(common::PartitionId pid,
                                           const lst::DataFile& f) {
  total.Add(f);
  partitions[pid].Add(f);
}

bool IncrementalStatsIndex::ScopeView::Remove(common::PartitionId pid,
                                              const lst::DataFile& f) {
  if (!total.Remove(f)) return false;
  const auto it = partitions.find(pid);
  if (it == partitions.end() || !it->second.Remove(f)) return false;
  // Empty partitions disappear so the partition key set always equals
  // TableMetadata::LivePartitions() of the same version.
  if (it->second.empty()) partitions.erase(it);
  return true;
}

void IncrementalStatsIndex::ScopeView::Clear() {
  total = Aggregate{};
  partitions.clear();
}

// ---------------------------------------------------------------------------
// IncrementalStatsIndex

IncrementalStatsIndex::IncrementalStatsIndex(catalog::Catalog* catalog)
    : catalog_(catalog) {
  assert(catalog_ != nullptr);
  listener_id_ = catalog_->AddCommitListener(
      [this](const catalog::CommitEvent& event) { OnCommit(event); });
}

IncrementalStatsIndex::~IncrementalStatsIndex() {
  catalog_->RemoveCommitListener(listener_id_);
}

IncrementalStatsIndex::Shard& IncrementalStatsIndex::ShardFor(
    common::TableId table) const {
  return shards_[static_cast<size_t>(table) % kShardCount];
}

void IncrementalStatsIndex::RebuildLocked(
    TableEntry* entry, const lst::TableMetadata& meta) const {
  entry->live.Clear();
  entry->fresh.Clear();

  int64_t last_replace = 0;
  for (const lst::Snapshot& s : meta.snapshots()) {
    if (s.operation == lst::SnapshotOperation::kReplace) {
      last_replace = std::max(last_replace, s.snapshot_id);
    }
  }
  entry->last_replace_snapshot_id = last_replace;

  // One manifest walk over the SoA columns; vectors fill unsorted and
  // are sorted once at the end (cheaper than per-file sorted insertion
  // for a bulk load). Partition keys are translated once per (manifest,
  // partition) into this entry's id arena, so the per-file loop reads
  // four numeric columns and never touches a string.
  const lst::Snapshot* snap = meta.current_snapshot();
  std::vector<common::PartitionId> translate;
  if (snap != nullptr) {
    for (const lst::ManifestPtr& m : snap->manifests) {
      const common::StringInterner& names = m->partition_interner();
      translate.assign(static_cast<size_t>(names.size()),
                       common::StringInterner::kInvalidId);
      for (const common::PartitionId mpid : m->partition_ids()) {
        translate[static_cast<size_t>(mpid)] =
            entry->partition_names.Intern(names.NameOf(mpid));
      }
      const auto& sizes = m->size_column();
      const auto& flags = m->flag_column();
      const auto& added = m->added_snapshot_column();
      const auto& pcol = m->partition_column();
      for (size_t i = 0; i < sizes.size(); ++i) {
        const int64_t size = sizes[i];
        const bool is_delete =
            (flags[i] & lst::Manifest::kFlagPositionDeletes) != 0;
        const bool unclustered =
            (flags[i] & lst::Manifest::kFlagUnclustered) != 0;
        const common::PartitionId pid =
            translate[static_cast<size_t>(pcol[i])];

        entry->live.total.sizes.push_back(size);
        entry->live.total.total_bytes += size;
        if (is_delete) ++entry->live.total.delete_file_count;
        if (unclustered) entry->live.total.unclustered_bytes += size;
        Aggregate& part = entry->live.partitions[pid];
        part.sizes.push_back(size);
        part.total_bytes += size;
        if (is_delete) ++part.delete_file_count;
        if (unclustered) part.unclustered_bytes += size;

        if (added[i] > last_replace) {
          entry->fresh.total.sizes.push_back(size);
          entry->fresh.total.total_bytes += size;
          if (is_delete) ++entry->fresh.total.delete_file_count;
          if (unclustered) entry->fresh.total.unclustered_bytes += size;
          Aggregate& fresh_part = entry->fresh.partitions[pid];
          fresh_part.sizes.push_back(size);
          fresh_part.total_bytes += size;
          if (is_delete) ++fresh_part.delete_file_count;
          if (unclustered) fresh_part.unclustered_bytes += size;
        }
      }
    }
  }

  std::sort(entry->live.total.sizes.begin(), entry->live.total.sizes.end());
  for (auto& [_, part] : entry->live.partitions) {
    std::sort(part.sizes.begin(), part.sizes.end());
  }
  std::sort(entry->fresh.total.sizes.begin(), entry->fresh.total.sizes.end());
  for (auto& [_, part] : entry->fresh.partitions) {
    std::sort(part.sizes.begin(), part.sizes.end());
  }

  entry->version = meta.version();
  entry->shared = {};
}

void IncrementalStatsIndex::ApplyDeltaLocked(
    TableEntry* entry, const lst::TableMetadata& meta,
    const lst::CommitDelta& delta) const {
  // Removals first, judged against the OLD watermark: a removed file was
  // fresh iff it was added after the replace snapshot that preceded this
  // commit.
  for (const lst::DataFile& f : delta.removed) {
    const common::PartitionId pid =
        entry->partition_names.Intern(f.partition);
    const bool was_fresh =
        f.added_snapshot_id > entry->last_replace_snapshot_id;
    if (!entry->live.Remove(pid, f) ||
        (was_fresh && !entry->fresh.Remove(pid, f))) {
      // The delta does not reconcile with the aggregates (should not
      // happen; defensive against future commit paths) — rebuild.
      rebuilds_.fetch_add(1);
      RebuildLocked(entry, meta);
      return;
    }
  }

  // A replace commit advances the watermark: nothing live was added
  // after it (its own outputs carry added_snapshot_id == the watermark),
  // so the fresh population resets.
  if (delta.operation == lst::SnapshotOperation::kReplace) {
    entry->last_replace_snapshot_id =
        std::max(entry->last_replace_snapshot_id, delta.snapshot_id);
    entry->fresh.Clear();
  }

  for (const lst::DataFile& f : delta.added) {
    const common::PartitionId pid =
        entry->partition_names.Intern(f.partition);
    entry->live.Add(pid, f);
    if (f.added_snapshot_id > entry->last_replace_snapshot_id) {
      entry->fresh.Add(pid, f);
    }
  }

  entry->version = meta.version();
  entry->shared = {};
  deltas_applied_.fetch_add(1);
}

IncrementalStatsIndex::TableEntry* IncrementalStatsIndex::EnsureLocked(
    Shard& shard, common::TableId table,
    const lst::TableMetadata& meta) const {
  auto [it, inserted] = shard.tables.try_emplace(table);
  TableEntry& entry = it->second;
  if (inserted) {
    RebuildLocked(&entry, meta);
  } else if (entry.version < meta.version()) {
    // The entry lags the pinned metadata: either its commit event has
    // not been delivered yet (listeners run outside the catalog lock) or
    // it was dropped before the entry existed. Newer wins — rebuild; the
    // in-flight event will then be skipped as stale.
    rebuilds_.fetch_add(1);
    RebuildLocked(&entry, meta);
  } else if (entry.version > meta.version()) {
    // The caller pinned an older version than the index has applied;
    // serving it would break determinism. Fall back to the rescan path.
    return nullptr;
  }
  return &entry;
}

void IncrementalStatsIndex::OnCommit(const catalog::CommitEvent& event) const {
  const common::TableId table_id = table_ids_.Intern(event.table);
  Shard& shard = ShardFor(table_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.tables.find(table_id);
  if (event.metadata == nullptr) {  // drop
    if (it != shard.tables.end()) shard.tables.erase(it);
    return;
  }
  if (it == shard.tables.end()) {
    // Not materialized yet; the first query will lazy-build from fresh
    // metadata. Building here would index tables observe never reads.
    return;
  }
  TableEntry& entry = it->second;
  const int64_t committed_version = event.metadata->version();
  if (committed_version <= entry.version) {
    // Out-of-order delivery of an event the entry already covers.
    return;
  }
  if (event.delta != nullptr && event.delta->known &&
      committed_version == entry.version + 1) {
    ApplyDeltaLocked(&entry, *event.metadata, *event.delta);
    return;
  }
  // Delta-less commit (expiry, rollback) or a gap in the event stream.
  rebuilds_.fetch_add(1);
  RebuildLocked(&entry, *event.metadata);
}

std::optional<CandidateStats> IncrementalStatsIndex::TryCollect(
    const Candidate& candidate, const lst::TableMetadataPtr& meta) const {
  const common::TableId table_id = table_ids_.Intern(candidate.table);
  Shard& shard = ShardFor(table_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  TableEntry* entry = EnsureLocked(shard, table_id, *meta);
  if (entry == nullptr) return std::nullopt;

  const ScopeView* view = nullptr;
  switch (candidate.scope) {
    case CandidateScope::kTable:
      view = &entry->live;
      break;
    case CandidateScope::kSnapshot:
      // Serve only the watermark the index maintains; any other
      // after_snapshot_id needs a filtered rescan.
      if (candidate.after_snapshot_id != entry->last_replace_snapshot_id) {
        return std::nullopt;
      }
      view = &entry->fresh;
      break;
    case CandidateScope::kPartition:
      break;  // handled below
  }

  CandidateStats stats;
  stats.table_created_at = meta->created_at();
  stats.last_modified_at = meta->last_updated_at();

  if (candidate.scope == CandidateScope::kPartition) {
    // Reporting edge: resolve the candidate's partition key against the
    // entry's arena; an unknown key means no live files (same result a
    // rescan restricted to it would produce).
    const common::PartitionId pid =
        candidate.partition.has_value()
            ? entry->partition_names.Lookup(*candidate.partition)
            : common::StringInterner::kInvalidId;
    const auto part = pid != common::StringInterner::kInvalidId
                          ? entry->live.partitions.find(pid)
                          : entry->live.partitions.end();
    if (part != entry->live.partitions.end()) {
      const Aggregate& agg = part->second;
      stats.file_sizes = agg.sizes;
      stats.total_bytes = agg.total_bytes;
      stats.delete_file_count = agg.delete_file_count;
      stats.unclustered_bytes = agg.unclustered_bytes;
      std::shared_ptr<const PartitionSizes>& shared =
          entry->shared.partitions[pid];
      if (shared == nullptr) {
        shared = std::make_shared<const PartitionSizes>(
            PartitionSizes{{*candidate.partition, agg.sizes}});
      }
      stats.file_sizes_by_partition = shared;
    }
  } else {
    stats.file_sizes = view->total.sizes;
    stats.total_bytes = view->total.total_bytes;
    stats.delete_file_count = view->total.delete_file_count;
    stats.unclustered_bytes = view->total.unclustered_bytes;
    std::shared_ptr<const PartitionSizes>& shared =
        view == &entry->live ? entry->shared.live : entry->shared.fresh;
    if (shared == nullptr) {
      // The id-keyed map iterates in id (arrival) order; inserting into
      // the name-keyed output map restores lexicographic order (NFR2).
      PartitionSizes by_name;
      for (const auto& [pid, agg] : view->partitions) {
        by_name.emplace(entry->partition_names.NameOf(pid), agg.sizes);
      }
      shared = std::make_shared<const PartitionSizes>(std::move(by_name));
    }
    stats.file_sizes_by_partition = shared;
  }
  stats.file_count = static_cast<int64_t>(stats.file_sizes.size());
  return stats;
}

std::optional<std::vector<std::string>> IncrementalStatsIndex::LivePartitions(
    const std::string& table, const lst::TableMetadataPtr& meta) const {
  const common::TableId table_id = table_ids_.Intern(table);
  Shard& shard = ShardFor(table_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const TableEntry* entry = EnsureLocked(shard, table_id, *meta);
  if (entry == nullptr) return std::nullopt;
  std::vector<std::string> out;
  out.reserve(entry->live.partitions.size());
  for (const auto& [pid, _] : entry->live.partitions) {
    out.push_back(entry->partition_names.NameOf(pid));
  }
  // Ids iterate in arrival order; sorting restores the lexicographic
  // output of TableMetadata::LivePartitions (NFR2).
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<int64_t> IncrementalStatsIndex::LastReplaceSnapshotId(
    const std::string& table, const lst::TableMetadataPtr& meta) const {
  const common::TableId table_id = table_ids_.Intern(table);
  Shard& shard = ShardFor(table_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const TableEntry* entry = EnsureLocked(shard, table_id, *meta);
  if (entry == nullptr) return std::nullopt;
  return entry->last_replace_snapshot_id;
}

// ---------------------------------------------------------------------------
// IndexedStatsCollector

IndexedStatsCollector::IndexedStatsCollector(
    catalog::Catalog* catalog, const catalog::ControlPlane* control_plane,
    const Clock* clock, std::shared_ptr<const IncrementalStatsIndex> index,
    bool cross_check)
    : StatsCollector(catalog, control_plane, clock),
      index_(std::move(index)),
      cross_check_(cross_check) {
  assert(index_ != nullptr);
}

Result<CandidateStats> IndexedStatsCollector::Collect(
    const Candidate& candidate) const {
  AUTOCOMP_ASSIGN_OR_RETURN(lst::TableMetadataPtr meta,
                            catalog_->LoadTable(candidate.table));
  std::optional<CandidateStats> indexed = index_->TryCollect(candidate, meta);
  if (!indexed.has_value()) {
    index_fallbacks_.fetch_add(1);
    return CollectFromMetadata(candidate, meta);
  }
  index_hits_.fetch_add(1);
  RefreshVolatile(candidate, *meta, &*indexed);

  if (cross_check_) {
    // Reference rescan against the SAME pinned metadata, so a concurrent
    // commit cannot manufacture a false mismatch.
    AUTOCOMP_ASSIGN_OR_RETURN(CandidateStats reference,
                              CollectFromMetadata(candidate, meta));
    std::string why;
    if (!StatsEquivalent(*indexed, reference, &why)) {
      return Status::Internal("stats index diverged from rescan for " +
                              candidate.id() + ": " + why);
    }
  }
  return std::move(*indexed);
}

// ---------------------------------------------------------------------------

bool StatsEquivalent(const CandidateStats& a, const CandidateStats& b,
                     std::string* why) {
  const auto fail = [why](const std::string& field) {
    if (why != nullptr) *why = field;
    return false;
  };
  if (a.file_count != b.file_count) return fail("file_count");
  if (a.total_bytes != b.total_bytes) return fail("total_bytes");
  if (a.file_sizes != b.file_sizes) return fail("file_sizes");
  if (a.partition_sizes() != b.partition_sizes()) {
    return fail("file_sizes_by_partition");
  }
  if (a.target_file_size_bytes != b.target_file_size_bytes) {
    return fail("target_file_size_bytes");
  }
  if (a.table_created_at != b.table_created_at) {
    return fail("table_created_at");
  }
  if (a.last_modified_at != b.last_modified_at) {
    return fail("last_modified_at");
  }
  if (a.delete_file_count != b.delete_file_count) {
    return fail("delete_file_count");
  }
  if (a.unclustered_bytes != b.unclustered_bytes) {
    return fail("unclustered_bytes");
  }
  if (a.quota_utilization != b.quota_utilization) {
    return fail("quota_utilization");
  }
  if (a.custom.entries() != b.custom.entries()) return fail("custom");
  return true;
}

}  // namespace autocomp::core
