/// \file stats_index.h
/// \brief Incrementally maintained observation aggregates: O(delta) stats
/// per OODA cycle instead of O(fleet live files).
///
/// The observe phase standardizes per-table/per-partition statistics for
/// every candidate each cycle (§4.1); at fleet scale a rescan of every
/// candidate's manifest tree is the dominant cost. The LSM design-space
/// trade (Sarkar et al.) applies: amortize the bookkeeping into the write
/// path. IncrementalStatsIndex subscribes to Catalog commit listeners and
/// keeps, per table and per partition:
///
///  * exact sorted live file-size lists (whole table and per partition),
///  * live byte totals, MoR delete-file counts, unclustered bytes,
///  * the last replace (compaction) snapshot id — the snapshot-scope
///    generator's watermark,
///  * the same aggregates over the "fresh" files added after that
///    watermark, built only once a snapshot-scope query asks for them.
///
/// Size lists are immutable SizeLists (core/candidate.h). Queries hand out
/// the index's own lists, never copies, and the per-version partition maps
/// point at the same lists. A commit never edits a list in place: its delta
/// is grouped by the aggregate it touches, each group is sorted once and
/// merged with the old list in one pass into a new list of exact capacity,
/// which replaces the old one under the shard lock. A list a caller still
/// holds stays valid and keeps its contents.
///
/// Delta-less commits (snapshot expiry, rollback) and out-of-order listener
/// delivery degrade to a full single-table rebuild of the live view from
/// the event's metadata; the rebuild drops the fresh view, and the next
/// snapshot-scope query builds it again from its pinned metadata. Entries
/// build lazily on first query.
///
/// Hot-path representation: tables and partitions are keyed by interned
/// ids (common::StringInterner), and builds stream the manifests' SoA
/// columns (sizes, flags, added-snapshot ids, partition ids) — a build
/// never touches a path string.
///
/// NFR2 (determinism): every query pins a metadata version; the index
/// answers only when its entry matches that exact version, otherwise the
/// caller falls back to the rescan path. Size lists are kept in the
/// canonical sorted-ascending order StatsCollector produces, so indexed
/// stats are bit-identical to a rescan — including float-summation order
/// in the entropy traits. IndexedStatsCollector's cross-check mode and
/// the randomized property test enforce this.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/interner.h"
#include "core/candidate.h"
#include "core/observe.h"

namespace autocomp::core {

/// \brief Sharded, commit-listener-maintained fleet statistics index.
///
/// Thread-safe: state is partitioned into shards keyed by table name;
/// each shard has its own mutex, so commits and queries on different
/// tables proceed in parallel. All methods are const so read-side
/// consumers (generators, collectors) can share one instance.
class IncrementalStatsIndex {
 public:
  explicit IncrementalStatsIndex(catalog::Catalog* catalog);
  ~IncrementalStatsIndex();

  IncrementalStatsIndex(const IncrementalStatsIndex&) = delete;
  IncrementalStatsIndex& operator=(const IncrementalStatsIndex&) = delete;

  /// \name Queries
  /// All queries take the caller's pinned metadata version. They return
  /// nullopt when the index cannot serve that exact version (entry newer
  /// than the pinned metadata, or an unserved snapshot-scope watermark);
  /// the caller must then fall back to scanning `meta`. When the entry is
  /// missing or older, the index (re)builds it from `meta` first.
  /// @{

  /// Metadata-derived candidate stats (canonical sorted order). Volatile
  /// fields (target size, quota, access telemetry) are NOT filled; the
  /// collector layers them on via RefreshVolatile. The returned
  /// file_sizes and file_sizes_by_partition are the same objects for every
  /// call on the same table version and scope (and partition, for
  /// partition scope).
  std::optional<CandidateStats> TryCollect(
      const Candidate& candidate, const lst::TableMetadataPtr& meta) const;

  /// Live partition keys, lexicographically sorted (same order as
  /// TableMetadata::LivePartitions).
  std::optional<std::vector<std::string>> LivePartitions(
      const std::string& table, const lst::TableMetadataPtr& meta) const;

  /// Most recent replace (compaction) snapshot id; 0 when none.
  std::optional<int64_t> LastReplaceSnapshotId(
      const std::string& table, const lst::TableMetadataPtr& meta) const;
  /// @}

  /// \name Maintenance telemetry
  /// @{
  int64_t deltas_applied() const { return deltas_applied_.load(); }
  int64_t rebuilds() const { return rebuilds_.load(); }
  /// Fresh (snapshot-scope) views built from pinned metadata; 0 for an
  /// index nobody asks for snapshot scope.
  int64_t fresh_view_builds() const { return fresh_view_builds_.load(); }
  /// @}

  static constexpr int kShardCount = 16;

 private:
  /// Sorted-size aggregate for one scope (whole table or one partition).
  struct Aggregate {
    SizeList sizes;
    int64_t total_bytes = 0;
    int64_t delete_file_count = 0;
    int64_t unclustered_bytes = 0;
  };

  /// Table-level + per-partition aggregates over one file population.
  /// Partitions are keyed by ids interned in the owning TableEntry —
  /// strings appear only at the reporting edge (TryCollect /
  /// LivePartitions re-establish name-lexicographic order there). A
  /// partition without files has no aggregate.
  struct ScopeView {
    Aggregate total;
    std::map<common::PartitionId, Aggregate> partitions;
  };

  /// Changes to a ScopeView grouped by the aggregate they touch: one
  /// commit's delta, or the files of a build (stats_index.cc).
  struct ScopeDelta;

  struct TableEntry {
    /// Metadata version the aggregates describe; the staleness key.
    int64_t version = -1;
    int64_t last_replace_snapshot_id = 0;
    /// Partition-key arena for this table's ScopeViews. Never reset:
    /// ids of vanished partitions simply go unused.
    common::StringInterner partition_names;
    /// All live files.
    ScopeView live;
    /// Live files with added_snapshot_id > last_replace_snapshot_id (the
    /// snapshot-scope candidate population). Built by the first
    /// snapshot-scope query, kept current by deltas, dropped by a rebuild.
    std::optional<ScopeView> fresh;
    /// Name-keyed partition-size maps TryCollect hands out: each is built
    /// on first use at `version` and shared by every caller until the
    /// version moves. They point at the views' lists; immutable, so
    /// callers keep them past the lock.
    struct SharedMaps {
      std::shared_ptr<const PartitionSizes> live;
      std::shared_ptr<const PartitionSizes> fresh;
      /// Partition-scope candidates, one single-key map per partition.
      std::map<common::PartitionId, std::shared_ptr<const PartitionSizes>>
          partitions;
    };
    SharedMaps shared;
  };

  struct Shard {
    mutable std::mutex mu;
    std::map<common::TableId, TableEntry> tables;
  };

  Shard& ShardFor(common::TableId table) const;

  /// Builds the view of `meta`'s live files added after
  /// `after_snapshot_id`, interning partition keys into `partition_names`.
  static ScopeView BuildView(const lst::TableMetadata& meta,
                             int64_t after_snapshot_id,
                             common::StringInterner* partition_names);
  /// Repopulates `entry`'s live view from a full walk of `meta`'s live
  /// files and drops its fresh view.
  void RebuildLocked(TableEntry* entry, const lst::TableMetadata& meta) const;
  /// Applies one commit's delta on top of `entry` (which must be at
  /// exactly the parent version), swapping in new lists for the
  /// aggregates it touches. Falls back to RebuildLocked if the delta does
  /// not reconcile with the aggregates.
  void ApplyDeltaLocked(TableEntry* entry, const lst::TableMetadata& meta,
                        const lst::CommitDelta& delta) const;

  /// Finds (building or refreshing as needed) the entry for `table` and
  /// returns it when it describes exactly `meta`'s version; nullptr when
  /// the entry is newer than the pinned metadata (caller falls back).
  /// Must be called with the shard lock held.
  TableEntry* EnsureLocked(Shard& shard, common::TableId table,
                           const lst::TableMetadata& meta) const;

  /// Commit-listener entry point.
  void OnCommit(const catalog::CommitEvent& event) const;

  catalog::Catalog* catalog_;
  int64_t listener_id_ = 0;
  /// Table-name arena: shard selection and entry keys are dense int ids;
  /// names cross this boundary only on the listener/query edges.
  mutable common::StringInterner table_ids_;
  mutable std::array<Shard, kShardCount> shards_;

  mutable std::atomic<int64_t> deltas_applied_{0};
  mutable std::atomic<int64_t> rebuilds_{0};
  mutable std::atomic<int64_t> fresh_view_builds_{0};
};

/// \brief StatsCollector that answers from the IncrementalStatsIndex and
/// falls back to the rescan path when the index cannot serve the pinned
/// metadata version. Output is bit-identical to StatsCollector::Collect
/// (NFR2); `cross_check` verifies that on every hit (debug/test mode) and
/// fails with Internal on divergence.
class IndexedStatsCollector final : public StatsCollector {
 public:
  IndexedStatsCollector(catalog::Catalog* catalog,
                        const catalog::ControlPlane* control_plane,
                        const Clock* clock,
                        std::shared_ptr<const IncrementalStatsIndex> index,
                        bool cross_check = false);

  Result<CandidateStats> Collect(const Candidate& candidate) const override;

  int64_t index_hits() const override { return index_hits_.load(); }
  int64_t index_fallbacks() const override { return index_fallbacks_.load(); }

  const IncrementalStatsIndex& index() const { return *index_; }

 private:
  std::shared_ptr<const IncrementalStatsIndex> index_;
  const bool cross_check_;
  mutable std::atomic<int64_t> index_hits_{0};
  mutable std::atomic<int64_t> index_fallbacks_{0};
};

/// \brief Field-by-field stats equality (including the custom property
/// bag); the cross-check predicate, shared with tests. On mismatch,
/// `why` (when non-null) receives a description of the first differing
/// field.
bool StatsEquivalent(const CandidateStats& a, const CandidateStats& b,
                     std::string* why = nullptr);

}  // namespace autocomp::core
