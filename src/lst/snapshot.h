/// \file snapshot.h
/// \brief Table snapshots: one per committed transaction.

#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "common/units.h"
#include "lst/manifest.h"
#include "lst/path_list.h"

namespace autocomp::lst {

/// \brief Operation that produced a snapshot. Validation rules differ per
/// operation (see transaction.h).
enum class SnapshotOperation : int {
  kAppend,
  /// Logical row updates/deletes that replace specific files (CoW) or add
  /// delete files (MoR).
  kOverwrite,
  /// Data-file rewrite that preserves logical content (compaction).
  kReplace,
  kDelete,
};

const char* SnapshotOperationName(SnapshotOperation op);

/// \brief One committed version of a table.
struct Snapshot {
  int64_t snapshot_id = 0;
  /// 0 for the first snapshot.
  int64_t parent_snapshot_id = 0;
  int64_t sequence_number = 0;
  SimTime timestamp = 0;
  SnapshotOperation operation = SnapshotOperation::kAppend;
  ManifestList manifests;

  /// Commit summary (counts mirrored from Iceberg snapshot summaries).
  int64_t added_files = 0;
  int64_t deleted_files = 0;
  int64_t added_bytes = 0;
  int64_t deleted_bytes = 0;
  int64_t added_records = 0;

  /// Partitions written or rewritten by this commit; drives
  /// partition-aware conflict validation.
  std::set<std::string> touched_partitions;
  /// Paths removed from the live set by this commit (empty for appends;
  /// copies share one buffer, so copying a snapshot stays cheap).
  SortedPathList removed_paths;

  int64_t live_file_count() const {
    int64_t n = 0;
    for (const ManifestPtr& m : manifests) n += m->file_count();
    return n;
  }
  int64_t live_bytes() const {
    int64_t n = 0;
    for (const ManifestPtr& m : manifests) n += m->total_bytes();
    return n;
  }
};

}  // namespace autocomp::lst
