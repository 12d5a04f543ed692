/// \file metadata_tables.h
/// \brief Read-only "metadata tables" (Iceberg-style) over table state.
///
/// The paper's deployment pulls compaction statistics from Iceberg
/// metadata tables [ref 9]. AutoComp's observe phase consumes these rows;
/// keeping them as a separate query surface (instead of poking at
/// TableMetadata internals) preserves NFR3: any LST that can produce these
/// rows can plug into AutoComp.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.h"
#include "lst/table_metadata.h"

namespace autocomp::lst {

/// \brief One row of the `partitions` metadata table.
struct PartitionRow {
  std::string partition;  // empty for unpartitioned tables
  int64_t file_count = 0;
  int64_t total_bytes = 0;
  int64_t record_count = 0;
  int64_t smallest_file_bytes = 0;
  int64_t largest_file_bytes = 0;
  /// Most recent snapshot that touched this partition.
  SimTime last_modified_at = 0;

  double avg_file_bytes() const {
    return file_count > 0 ? static_cast<double>(total_bytes) / file_count : 0;
  }
};

/// \brief One row of the `snapshots` metadata table.
struct SnapshotRow {
  int64_t snapshot_id = 0;
  int64_t parent_snapshot_id = 0;
  SimTime committed_at = 0;
  std::string operation;
  int64_t added_files = 0;
  int64_t deleted_files = 0;
  int64_t added_bytes = 0;
};

/// \brief Summary row of the `manifests` metadata table.
struct ManifestRow {
  int64_t manifest_id = 0;
  int64_t file_count = 0;
  int64_t total_bytes = 0;
  int64_t partition_count = 0;
};

/// \brief Metadata-table queries over one metadata version.
class MetadataTables {
 public:
  explicit MetadataTables(TableMetadataPtr metadata)
      : metadata_(std::move(metadata)) {}

  /// `files`: all live data files of the current snapshot.
  std::vector<DataFile> Files() const { return metadata_->LiveFiles(); }

  /// `partitions`: per-partition aggregates over live files.
  std::vector<PartitionRow> Partitions() const;

  /// `snapshots`: commit history rows, oldest first.
  std::vector<SnapshotRow> Snapshots() const;

  /// `manifests`: current snapshot's manifests.
  std::vector<ManifestRow> Manifests() const;

  /// Files added by snapshots with id > `after_snapshot_id` that are still
  /// live (supports snapshot-scoped compaction candidates, §4.1).
  std::vector<DataFile> FilesAddedAfter(int64_t after_snapshot_id) const;

  /// Zero-copy variant of FilesAddedAfter: visits the matching files as
  /// manifest views instead of materializing DataFile copies — the
  /// observe phase's snapshot-scope hot path.
  void ForEachFileAddedAfter(
      int64_t after_snapshot_id,
      const std::function<void(const DataFileRef&)>& fn) const;

 private:
  TableMetadataPtr metadata_;
};

}  // namespace autocomp::lst
