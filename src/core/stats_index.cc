#include "core/stats_index.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <utility>

namespace autocomp::core {

namespace {

// One commit's (or one build's) changes to one aggregate: the sizes it
// loses and gains, and the net change of its counters.
struct AggregateDelta {
  std::vector<int64_t> removed;
  std::vector<int64_t> added;
  int64_t bytes = 0;
  int64_t delete_files = 0;
  int64_t unclustered_bytes = 0;

  void Note(int64_t size, bool is_delete, bool unclustered, bool add) {
    const int64_t sign = add ? 1 : -1;
    (add ? added : removed).push_back(size);
    bytes += sign * size;
    if (is_delete) delete_files += sign;
    if (unclustered) unclustered_bytes += sign * size;
  }
  void Note(const lst::DataFile& f, bool add) {
    Note(f.file_size_bytes, f.content == lst::FileContent::kPositionDeletes,
         !f.clustered, add);
  }
};

// Merges sorted `removed` and `added` into sorted `sizes` in one pass, into
// a new vector of exact capacity. nullopt when a removed size is absent.
std::optional<std::vector<int64_t>> MergeSorted(
    const std::vector<int64_t>& sizes, const std::vector<int64_t>& removed,
    const std::vector<int64_t>& added) {
  if (removed.size() > sizes.size()) return std::nullopt;
  std::vector<int64_t> out;
  out.reserve(sizes.size() - removed.size() + added.size());
  auto r = removed.begin();
  auto a = added.begin();
  for (const int64_t size : sizes) {
    if (r != removed.end() && *r <= size) {
      // Both lists ascend, so a removal below `size` matches nothing.
      if (*r < size) return std::nullopt;
      ++r;
      continue;
    }
    for (; a != added.end() && *a <= size; ++a) out.push_back(*a);
    out.push_back(size);
  }
  if (r != removed.end()) return std::nullopt;
  out.insert(out.end(), a, added.end());
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// ScopeDelta

struct IncrementalStatsIndex::ScopeDelta {
  AggregateDelta total;
  std::map<common::PartitionId, AggregateDelta> partitions;

  void Note(common::PartitionId pid, const lst::DataFile& f, bool add) {
    total.Note(f, add);
    partitions[pid].Note(f, add);
  }

  // Swaps a merged list into every aggregate the delta touches; false
  // when the delta does not reconcile with `view`.
  bool ApplyTo(ScopeView* view) {
    if (!Merge(&total, &view->total)) return false;
    for (auto& [pid, delta] : partitions) {
      const auto it = view->partitions.try_emplace(pid).first;
      if (!Merge(&delta, &it->second)) return false;
      // Empty partitions disappear so the partition key set always equals
      // TableMetadata::LivePartitions() of the same version.
      if (it->second.sizes.empty()) view->partitions.erase(it);
    }
    return true;
  }

  static bool Merge(AggregateDelta* delta, Aggregate* agg) {
    std::sort(delta->removed.begin(), delta->removed.end());
    std::sort(delta->added.begin(), delta->added.end());
    std::optional<std::vector<int64_t>> merged =
        MergeSorted(agg->sizes.values(), delta->removed, delta->added);
    if (!merged.has_value()) return false;
    agg->sizes = SizeList(std::move(*merged));
    agg->total_bytes += delta->bytes;
    agg->delete_file_count += delta->delete_files;
    agg->unclustered_bytes += delta->unclustered_bytes;
    return true;
  }
};

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

IncrementalStatsIndex::ScopeView IncrementalStatsIndex::BuildView(
    const lst::TableMetadata& meta, int64_t after_snapshot_id,
    common::StringInterner* partition_names) {
  // A build is a delta that only adds, applied to an empty view. One
  // manifest walk over the SoA columns gathers each aggregate's sizes
  // (each list is then sorted once, cheaper than per-file sorted
  // insertion for a bulk load). Partition keys are translated once per
  // (manifest, partition) into the entry's id arena, so the per-file loop
  // reads four numeric columns and never touches a string.
  ScopeDelta delta;
  const lst::Snapshot* snap = meta.current_snapshot();
  if (snap != nullptr) {
    std::vector<AggregateDelta*> translate;
    for (const lst::ManifestPtr& m : snap->manifests) {
      const common::StringInterner& names = m->partition_interner();
      translate.assign(static_cast<size_t>(names.size()), nullptr);
      for (const common::PartitionId mpid : m->partition_ids()) {
        translate[static_cast<size_t>(mpid)] =
            &delta.partitions[partition_names->Intern(names.NameOf(mpid))];
      }
      const auto& sizes = m->size_column();
      const auto& flags = m->flag_column();
      const auto& added = m->added_snapshot_column();
      const auto& pcol = m->partition_column();
      for (size_t i = 0; i < sizes.size(); ++i) {
        if (added[i] <= after_snapshot_id) continue;
        const bool is_delete =
            (flags[i] & lst::Manifest::kFlagPositionDeletes) != 0;
        const bool unclustered =
            (flags[i] & lst::Manifest::kFlagUnclustered) != 0;
        delta.total.Note(sizes[i], is_delete, unclustered, /*add=*/true);
        translate[static_cast<size_t>(pcol[i])]->Note(
            sizes[i], is_delete, unclustered, /*add=*/true);
      }
    }
  }
  ScopeView view;
  [[maybe_unused]] const bool applied = delta.ApplyTo(&view);
  assert(applied);  // nothing to remove, so nothing to reconcile
  return view;
}

void IncrementalStatsIndex::RebuildLocked(
    TableEntry* entry, const lst::TableMetadata& meta) const {
  int64_t last_replace = 0;
  for (const lst::Snapshot& s : meta.snapshots()) {
    if (s.operation == lst::SnapshotOperation::kReplace) {
      last_replace = std::max(last_replace, s.snapshot_id);
    }
  }
  entry->last_replace_snapshot_id = last_replace;
  entry->live = BuildView(meta, std::numeric_limits<int64_t>::min(),
                          &entry->partition_names);
  entry->fresh.reset();
  entry->version = meta.version();
  entry->shared = {};
}

void IncrementalStatsIndex::ApplyDeltaLocked(
    TableEntry* entry, const lst::TableMetadata& meta,
    const lst::CommitDelta& delta) const {
  // A replace commit advances the watermark, and nothing live was added
  // after it (its own outputs carry added_snapshot_id == the watermark):
  // the fresh population starts over, so its removals skip that view.
  const bool replace = delta.operation == lst::SnapshotOperation::kReplace;
  const bool track_fresh = entry->fresh.has_value();
  ScopeDelta live;
  ScopeDelta fresh;
  // Removals are judged against the OLD watermark: a removed file was
  // fresh iff it was added after the replace snapshot that preceded this
  // commit.
  for (const lst::DataFile& f : delta.removed) {
    const common::PartitionId pid =
        entry->partition_names.Intern(f.partition);
    live.Note(pid, f, /*add=*/false);
    if (track_fresh && !replace &&
        f.added_snapshot_id > entry->last_replace_snapshot_id) {
      fresh.Note(pid, f, /*add=*/false);
    }
  }
  if (replace) {
    entry->last_replace_snapshot_id =
        std::max(entry->last_replace_snapshot_id, delta.snapshot_id);
    if (track_fresh) entry->fresh.emplace();
  }
  for (const lst::DataFile& f : delta.added) {
    const common::PartitionId pid =
        entry->partition_names.Intern(f.partition);
    live.Note(pid, f, /*add=*/true);
    if (track_fresh && f.added_snapshot_id > entry->last_replace_snapshot_id) {
      fresh.Note(pid, f, /*add=*/true);
    }
  }

  if (!live.ApplyTo(&entry->live) ||
      (track_fresh && !fresh.ApplyTo(&*entry->fresh))) {
    // The delta does not reconcile with the aggregates (should not
    // happen; defensive against future commit paths) — rebuild.
    rebuilds_.fetch_add(1);
    RebuildLocked(entry, meta);
    return;
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

  // A whole-table view's name-keyed partition map, built once per version.
  // The id-keyed map iterates in id (arrival) order; inserting into the
  // name-keyed output map restores lexicographic order (NFR2).
  const auto shared_map = [entry](const ScopeView& view,
                                  std::shared_ptr<const PartitionSizes>* map) {
    if (*map == nullptr) {
      PartitionSizes by_name;
      for (const auto& [pid, agg] : view.partitions) {
        by_name.emplace(entry->partition_names.NameOf(pid), agg.sizes);
      }
      *map = std::make_shared<const PartitionSizes>(std::move(by_name));
    }
    return *map;
  };

  CandidateStats stats;
  stats.table_created_at = meta->created_at();
  stats.last_modified_at = meta->last_updated_at();
  const Aggregate* agg = nullptr;
  switch (candidate.scope) {
    case CandidateScope::kTable:
      agg = &entry->live.total;
      stats.file_sizes_by_partition =
          shared_map(entry->live, &entry->shared.live);
      break;
    case CandidateScope::kSnapshot:
      // Serve only the watermark the index maintains; any other
      // after_snapshot_id needs a filtered rescan.
      if (candidate.after_snapshot_id != entry->last_replace_snapshot_id) {
        return std::nullopt;
      }
      if (!entry->fresh.has_value()) {
        // The entry is at the pinned version, so the pinned metadata
        // builds the view; deltas keep it current from here on.
        entry->fresh = BuildView(*meta, entry->last_replace_snapshot_id,
                                 &entry->partition_names);
        fresh_view_builds_.fetch_add(1);
      }
      agg = &entry->fresh->total;
      stats.file_sizes_by_partition =
          shared_map(*entry->fresh, &entry->shared.fresh);
      break;
    case CandidateScope::kPartition: {
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
      if (part == entry->live.partitions.end()) break;
      agg = &part->second;
      std::shared_ptr<const PartitionSizes>& map =
          entry->shared.partitions[pid];
      if (map == nullptr) {
        map = std::make_shared<const PartitionSizes>(
            PartitionSizes{{*candidate.partition, agg->sizes}});
      }
      stats.file_sizes_by_partition = map;
      break;
    }
  }
  if (agg != nullptr) {
    stats.file_sizes = agg->sizes;
    stats.total_bytes = agg->total_bytes;
    stats.delete_file_count = agg->delete_file_count;
    stats.unclustered_bytes = agg->unclustered_bytes;
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
