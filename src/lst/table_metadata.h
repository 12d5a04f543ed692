/// \file table_metadata.h
/// \brief Immutable, versioned table metadata (the object a catalog swaps
/// atomically on every commit).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "common/units.h"
#include "lst/manifest.h"
#include "lst/partition.h"
#include "lst/snapshot.h"
#include "lst/types.h"

namespace autocomp::fault {
class FaultInjector;
}  // namespace autocomp::fault

namespace autocomp::obs {
class TraceRecorder;
}  // namespace autocomp::obs

namespace autocomp::lst {

class TableMetadata;
using TableMetadataPtr = std::shared_ptr<const TableMetadata>;

/// Well-known table property keys.
inline constexpr const char* kPropTargetFileSizeBytes =
    "write.target-file-size-bytes";
inline constexpr const char* kPropMaxManifests =
    "commit.manifest.max-count";

/// \brief All state of one table at one version.
///
/// Instances are immutable; every commit builds a successor via Builder
/// and the catalog CAS-swaps the pointer. Snapshot history is retained
/// until ExpireSnapshots trims it.
class TableMetadata {
 public:
  /// \brief Mutating construction helper; the only way to make metadata.
  class Builder;

  const std::string& name() const { return name_; }
  const std::string& location() const { return location_; }
  const Schema& schema() const { return schema_; }
  const PartitionSpec& partition_spec() const { return spec_; }
  const Config& properties() const { return properties_; }

  /// Monotonic metadata version; the catalog's CAS key.
  int64_t version() const { return version_; }
  SimTime created_at() const { return created_at_; }
  SimTime last_updated_at() const { return last_updated_at_; }

  const std::vector<Snapshot>& snapshots() const { return snapshots_; }
  int64_t current_snapshot_id() const { return current_snapshot_id_; }
  /// nullptr when the table has no snapshot yet.
  const Snapshot* current_snapshot() const;
  const Snapshot* FindSnapshot(int64_t snapshot_id) const;

  /// Snapshots committed strictly after `snapshot_id` on the current
  /// lineage (oldest first). Used by conflict validation.
  std::vector<const Snapshot*> SnapshotsAfter(int64_t snapshot_id) const;

  /// Live data files of the current snapshot as owning copies,
  /// optionally restricted to one partition key. Empty when no snapshot.
  std::vector<DataFile> LiveFiles(
      const std::optional<std::string>& partition = std::nullopt) const;

  /// Zero-copy visitation of the current snapshot's live files,
  /// optionally restricted to one partition key: each file is a view of
  /// its manifest's columns, valid while this metadata is alive — the
  /// hot path for fleet-scale observation and commit validation, where
  /// only a scan is needed.
  void ForEachLiveFile(
      const std::function<void(const DataFileRef&)>& fn,
      const std::optional<std::string>& partition = std::nullopt) const;

  /// True if `path` is live in the current snapshot.
  bool IsLive(std::string_view path) const;

  /// Distinct partition keys present in the current snapshot.
  std::vector<std::string> LivePartitions() const;

  int64_t live_file_count() const;
  int64_t live_bytes() const;

  /// Next ids used by Builder when appending commits.
  int64_t next_snapshot_id() const { return next_snapshot_id_; }
  int64_t next_manifest_id() const { return next_manifest_id_; }
  int64_t next_sequence_number() const { return next_sequence_number_; }

  /// Target on-disk file size for writes/compaction; falls back to 512MiB
  /// (the paper's target, §2).
  int64_t target_file_size_bytes() const;

 private:
  friend class Builder;
  TableMetadata() = default;

  std::string name_;
  std::string location_;
  Schema schema_;
  PartitionSpec spec_;
  Config properties_;
  int64_t version_ = 0;
  SimTime created_at_ = 0;
  SimTime last_updated_at_ = 0;
  std::vector<Snapshot> snapshots_;
  int64_t current_snapshot_id_ = 0;  // 0 = none
  int64_t next_snapshot_id_ = 1;
  int64_t next_manifest_id_ = 1;
  int64_t next_sequence_number_ = 1;
  /// The lineage's interner of partition keys and path directories.
  /// Successor versions built via Builder(base) inherit it, so every
  /// manifest in a table's history interns both into one arena, and a
  /// directory is stored once per lineage. Never nullptr.
  std::shared_ptr<common::StringInterner> partition_interner_;
};

/// \brief Builds a new (or successor) TableMetadata.
class TableMetadata::Builder {
 public:
  /// Starts a fresh table definition.
  Builder(std::string name, std::string location, Schema schema,
          PartitionSpec spec);

  /// Starts from an existing version; the result's version is base+1.
  explicit Builder(const TableMetadata& base);

  Builder& SetProperties(Config properties);
  Builder& SetProperty(const std::string& key, const std::string& value);
  Builder& SetCreatedAt(SimTime t);
  Builder& SetLastUpdatedAt(SimTime t);

  /// Appends a snapshot and makes it current. The snapshot's id, sequence
  /// number and parent must have been allocated from this builder via
  /// AllocateSnapshotId()/AllocateSequenceNumber().
  Builder& AddSnapshot(Snapshot snapshot);

  /// Replaces the retained snapshot list (used by snapshot expiry). The
  /// current snapshot must be retained.
  Builder& SetSnapshots(std::vector<Snapshot> snapshots);

  int64_t AllocateSnapshotId();
  int64_t AllocateManifestId();
  int64_t AllocateSequenceNumber();

  /// Allocates a manifest id and returns a writer for a manifest of
  /// exactly `file_count` entries and `name_bytes` file-name bytes that
  /// shares the lineage's interner (partition keys and directories).
  /// All commit paths build manifests through this.
  ManifestWriter NewManifest(size_t file_count, size_t name_bytes);

  /// Deserialization-only: restore the exact version and id counters of
  /// a persisted metadata document (normal commits never call these).
  Builder& RestoreVersion(int64_t version);
  Builder& RestoreCounters(int64_t next_snapshot_id, int64_t next_manifest_id,
                           int64_t next_sequence_number);
  /// Deserialization-only: rebuilds a persisted manifest under its own
  /// id in the lineage's interner, so the revived lineage keeps one
  /// shared arena of partition keys and directories instead of
  /// per-manifest ones.
  ManifestPtr RestoreManifest(int64_t manifest_id,
                              const std::vector<DataFileRef>& files);

  Result<TableMetadataPtr> Build();

 private:
  TableMetadata meta_;
  bool built_ = false;
};

struct CommitDelta;

/// \brief Abstract metadata store: the commit point of the system.
///
/// Implemented by catalog::Catalog. A commit succeeds only if the table's
/// version still equals `base_version` (compare-and-swap) — this is where
/// write-write conflicts surface (Table 1 in the paper).
class MetadataStore {
 public:
  virtual ~MetadataStore() = default;

  virtual Result<TableMetadataPtr> LoadTable(const std::string& name) const = 0;

  /// Atomically replaces table metadata iff version == base_version.
  /// Returns CommitConflict when the version moved.
  virtual Status CommitTable(const std::string& name, int64_t base_version,
                             TableMetadataPtr new_metadata) = 0;

  /// CommitTable plus the live-set delta the commit produced (see
  /// commit_delta.h). Transactions commit through this entry point so
  /// stores can feed incremental consumers; the default forwards to
  /// CommitTable, dropping the delta — stores that do not track deltas
  /// need not change.
  virtual Status CommitTableWithDelta(const std::string& name,
                                      int64_t base_version,
                                      TableMetadataPtr new_metadata,
                                      const CommitDelta& delta) {
    (void)delta;
    return CommitTable(name, base_version, std::move(new_metadata));
  }

  /// Fault injector armed on this store's commit path, if any.
  /// Transactions created against this store arm fault::kSiteLstCommit
  /// through it (injected CAS races and validation aborts); nullptr means
  /// faults are off. Stores wired into a fault harness override this.
  virtual fault::FaultInjector* fault_injector() const { return nullptr; }

  /// Trace recorder observing this store's commit path, if any.
  /// Transactions created against this store record their commit
  /// outcomes through it (see obs/trace.h); nullptr means tracing is
  /// off. Stores wired into a traced environment override this.
  virtual obs::TraceRecorder* trace_recorder() const { return nullptr; }
};

/// \brief Merges manifests so that no more than `max_manifests` remain,
/// coalescing the smallest ones first (Iceberg's manifest-merge-on-write).
/// Allocates new manifest ids via `builder`.
ManifestList MaybeMergeManifests(ManifestList manifests, int64_t max_manifests,
                                 TableMetadata::Builder* builder);

}  // namespace autocomp::lst
