/// \file data_file.h
/// \brief Immutable data-file descriptors tracked in table metadata.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/units.h"

namespace autocomp::lst {

/// \brief Kind of content a tracked file holds. MoR tables accumulate
/// delete (delta) files that compaction folds back into data files (§2,
/// "Merge-on-Read configurations generate delta files that accumulate").
enum class FileContent : int {
  kData,
  /// Row-level deletes pending merge (MoR delta file).
  kPositionDeletes,
};

struct DataFileRef;

/// \brief Metadata entry for one immutable file referenced by a table.
///
/// The owning form: commit inputs, CommitDelta and LiveFiles() carry
/// DataFiles. Manifests do not store them; they hand out DataFileRef
/// views over their columns.
///
/// Matches the fields Iceberg keeps per data file that AutoComp's observe
/// phase consumes: path, partition key, on-disk size, record count, and
/// the snapshot that added the file (enables snapshot-scoped candidates).
struct DataFile {
  std::string path;
  /// Partition key string ("month=1995-03"); empty for unpartitioned.
  std::string partition;
  FileContent content = FileContent::kData;
  int64_t file_size_bytes = 0;
  int64_t record_count = 0;
  /// True when the file was written with a clustering layout (Z-order /
  /// V-order style, §8 "Automatic Data Layout Optimization"): selective
  /// scans can skip row groups inside clustered files.
  bool clustered = false;
  /// Snapshot that added this file (filled in at commit).
  int64_t added_snapshot_id = 0;
  /// Commit sequence number (filled in at commit).
  int64_t sequence_number = 0;

  /// Path identity: two DataFile entries are "the same file" iff their
  /// paths are equal, regardless of the other fields. This is the
  /// contract the whole metadata layer leans on — commit validation,
  /// removed-path sets, and the incremental stats index all treat the
  /// path as the primary key, which is sound only because files are
  /// immutable once written (a path is never reused with different
  /// contents) and because a path is live in at most one table at one
  /// snapshot. fault::CheckInvariants audits live-path uniqueness —
  /// within a table's current snapshot and across tables — every epoch.
  bool operator==(const DataFile& other) const {
    return path == other.path;
  }

  /// A view of this file, valid while this DataFile lives unmodified.
  DataFileRef view() const;
};

/// \brief Read-only view of one file entry: DataFile's fields, with the
/// path and partition viewing storage someone else owns.
///
/// Manifest iteration, TableMetadata::ForEachLiveFile and Table::PlanScan
/// hand these out; they stay valid while the manifest (or the
/// TableMetadataPtr pinning it) is alive. ToDataFile() makes an owning
/// copy for callers that keep a file past that.
struct DataFileRef {
  std::string_view path;
  std::string_view partition;
  FileContent content = FileContent::kData;
  int64_t file_size_bytes = 0;
  int64_t record_count = 0;
  bool clustered = false;
  int64_t added_snapshot_id = 0;
  int64_t sequence_number = 0;

  DataFile ToDataFile() const {
    return DataFile{std::string(path), std::string(partition), content,
                    file_size_bytes, record_count, clustered,
                    added_snapshot_id, sequence_number};
  }
};

inline DataFileRef DataFile::view() const {
  return DataFileRef{path, partition, content,
                     file_size_bytes, record_count, clustered,
                     added_snapshot_id, sequence_number};
}

}  // namespace autocomp::lst
