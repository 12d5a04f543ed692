#include "lst/metadata_tables.h"

#include <algorithm>
#include <map>

namespace autocomp::lst {

std::vector<PartitionRow> MetadataTables::Partitions() const {
  std::map<std::string, PartitionRow> rows;
  const Snapshot* snap = metadata_->current_snapshot();
  if (snap == nullptr) return {};

  // Last-modified per partition from the snapshot history.
  std::map<std::string, SimTime, std::less<>> last_modified;
  for (const Snapshot& s : metadata_->snapshots()) {
    for (const std::string& p : s.touched_partitions) {
      last_modified[p] = std::max(last_modified[p], s.timestamp);
    }
  }

  for (const ManifestPtr& m : snap->manifests) {
    for (const DataFileRef& f : *m) {
      PartitionRow& row = rows[std::string(f.partition)];
      if (row.file_count == 0) {
        row.partition = f.partition;
        row.smallest_file_bytes = f.file_size_bytes;
        row.largest_file_bytes = f.file_size_bytes;
      } else {
        row.smallest_file_bytes =
            std::min(row.smallest_file_bytes, f.file_size_bytes);
        row.largest_file_bytes =
            std::max(row.largest_file_bytes, f.file_size_bytes);
      }
      row.file_count += 1;
      row.total_bytes += f.file_size_bytes;
      row.record_count += f.record_count;
      const auto it = last_modified.find(f.partition);
      if (it != last_modified.end()) row.last_modified_at = it->second;
    }
  }
  std::vector<PartitionRow> out;
  out.reserve(rows.size());
  for (auto& [_, row] : rows) out.push_back(std::move(row));
  return out;
}

std::vector<SnapshotRow> MetadataTables::Snapshots() const {
  std::vector<SnapshotRow> out;
  out.reserve(metadata_->snapshots().size());
  for (const Snapshot& s : metadata_->snapshots()) {
    SnapshotRow row;
    row.snapshot_id = s.snapshot_id;
    row.parent_snapshot_id = s.parent_snapshot_id;
    row.committed_at = s.timestamp;
    row.operation = SnapshotOperationName(s.operation);
    row.added_files = s.added_files;
    row.deleted_files = s.deleted_files;
    row.added_bytes = s.added_bytes;
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<ManifestRow> MetadataTables::Manifests() const {
  std::vector<ManifestRow> out;
  const Snapshot* snap = metadata_->current_snapshot();
  if (snap == nullptr) return out;
  out.reserve(snap->manifests.size());
  for (const ManifestPtr& m : snap->manifests) {
    ManifestRow row;
    row.manifest_id = m->manifest_id();
    row.file_count = m->file_count();
    row.total_bytes = m->total_bytes();
    row.partition_count = m->partition_count();
    out.push_back(row);
  }
  return out;
}

std::vector<DataFile> MetadataTables::FilesAddedAfter(
    int64_t after_snapshot_id) const {
  std::vector<DataFile> out;
  ForEachFileAddedAfter(after_snapshot_id, [&out](const DataFileRef& f) {
    out.push_back(f.ToDataFile());
  });
  return out;
}

void MetadataTables::ForEachFileAddedAfter(
    int64_t after_snapshot_id,
    const std::function<void(const DataFileRef&)>& fn) const {
  metadata_->ForEachLiveFile([&](const DataFileRef& f) {
    if (f.added_snapshot_id > after_snapshot_id) fn(f);
  });
}

}  // namespace autocomp::lst
