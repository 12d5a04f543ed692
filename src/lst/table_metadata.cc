#include "lst/table_metadata.h"

#include <algorithm>
#include <set>

#include "common/logging.h"

namespace autocomp::lst {

const char* SnapshotOperationName(SnapshotOperation op) {
  switch (op) {
    case SnapshotOperation::kAppend:
      return "append";
    case SnapshotOperation::kOverwrite:
      return "overwrite";
    case SnapshotOperation::kReplace:
      return "replace";
    case SnapshotOperation::kDelete:
      return "delete";
  }
  return "unknown";
}

const Snapshot* TableMetadata::current_snapshot() const {
  return FindSnapshot(current_snapshot_id_);
}

const Snapshot* TableMetadata::FindSnapshot(int64_t snapshot_id) const {
  if (snapshot_id == 0) return nullptr;
  for (const Snapshot& s : snapshots_) {
    if (s.snapshot_id == snapshot_id) return &s;
  }
  return nullptr;
}

std::vector<const Snapshot*> TableMetadata::SnapshotsAfter(
    int64_t snapshot_id) const {
  // Snapshots are stored in commit order; history is linear in this
  // implementation (no branches), so "after" is a suffix scan.
  std::vector<const Snapshot*> out;
  bool seen = snapshot_id == 0;
  for (const Snapshot& s : snapshots_) {
    if (seen) out.push_back(&s);
    if (s.snapshot_id == snapshot_id) seen = true;
  }
  return out;
}

std::vector<DataFile> TableMetadata::LiveFiles(
    const std::optional<std::string>& partition) const {
  std::vector<DataFile> out;
  ForEachLiveFile(
      [&out](const DataFileRef& f) { out.push_back(f.ToDataFile()); },
      partition);
  return out;
}

void TableMetadata::ForEachLiveFile(
    const std::function<void(const DataFileRef&)>& fn,
    const std::optional<std::string>& partition) const {
  const Snapshot* snap = current_snapshot();
  if (snap == nullptr) return;
  for (const ManifestPtr& m : snap->manifests) m->ForEachFile(partition, fn);
}

bool TableMetadata::IsLive(std::string_view path) const {
  const Snapshot* snap = current_snapshot();
  if (snap == nullptr) return false;
  for (const ManifestPtr& m : snap->manifests) {
    for (size_t i = 0; i < static_cast<size_t>(m->file_count()); ++i) {
      if (m->path(i) == path) return true;
    }
  }
  return false;
}

std::vector<std::string> TableMetadata::LivePartitions() const {
  std::set<std::string> parts;
  const Snapshot* snap = current_snapshot();
  if (snap == nullptr) return {};
  // Resolve each manifest's interned summary through its own interner:
  // manifests normally share the lineage interner, but restored or
  // hand-built ones may carry private arenas. The set re-establishes the
  // lexicographic output order ids do not carry.
  for (const ManifestPtr& m : snap->manifests) {
    const common::StringInterner& names = m->partition_interner();
    for (const common::PartitionId id : m->partition_ids()) {
      parts.insert(names.NameOf(id));
    }
  }
  return {parts.begin(), parts.end()};
}

int64_t TableMetadata::live_file_count() const {
  const Snapshot* snap = current_snapshot();
  return snap == nullptr ? 0 : snap->live_file_count();
}

int64_t TableMetadata::live_bytes() const {
  const Snapshot* snap = current_snapshot();
  return snap == nullptr ? 0 : snap->live_bytes();
}

int64_t TableMetadata::target_file_size_bytes() const {
  return properties_.GetInt(kPropTargetFileSizeBytes, 512 * kMiB);
}

TableMetadata::Builder::Builder(std::string name, std::string location,
                                Schema schema, PartitionSpec spec) {
  meta_.name_ = std::move(name);
  meta_.location_ = std::move(location);
  meta_.schema_ = std::move(schema);
  meta_.spec_ = std::move(spec);
  meta_.version_ = 1;
  meta_.partition_interner_ = std::make_shared<common::StringInterner>();
}

TableMetadata::Builder::Builder(const TableMetadata& base) {
  meta_ = base;
  meta_.version_ = base.version_ + 1;
}

TableMetadata::Builder& TableMetadata::Builder::SetProperties(
    Config properties) {
  meta_.properties_ = std::move(properties);
  return *this;
}

TableMetadata::Builder& TableMetadata::Builder::SetProperty(
    const std::string& key, const std::string& value) {
  meta_.properties_.Set(key, value);
  return *this;
}

TableMetadata::Builder& TableMetadata::Builder::SetCreatedAt(SimTime t) {
  meta_.created_at_ = t;
  if (meta_.last_updated_at_ < t) meta_.last_updated_at_ = t;
  return *this;
}

TableMetadata::Builder& TableMetadata::Builder::SetLastUpdatedAt(SimTime t) {
  meta_.last_updated_at_ = t;
  return *this;
}

TableMetadata::Builder& TableMetadata::Builder::AddSnapshot(Snapshot snapshot) {
  meta_.current_snapshot_id_ = snapshot.snapshot_id;
  meta_.last_updated_at_ = std::max(meta_.last_updated_at_, snapshot.timestamp);
  meta_.snapshots_.push_back(std::move(snapshot));
  return *this;
}

TableMetadata::Builder& TableMetadata::Builder::SetSnapshots(
    std::vector<Snapshot> snapshots) {
  meta_.snapshots_ = std::move(snapshots);
  return *this;
}

TableMetadata::Builder& TableMetadata::Builder::RestoreVersion(
    int64_t version) {
  meta_.version_ = version;
  return *this;
}

TableMetadata::Builder& TableMetadata::Builder::RestoreCounters(
    int64_t next_snapshot_id, int64_t next_manifest_id,
    int64_t next_sequence_number) {
  meta_.next_snapshot_id_ = next_snapshot_id;
  meta_.next_manifest_id_ = next_manifest_id;
  meta_.next_sequence_number_ = next_sequence_number;
  return *this;
}

ManifestPtr TableMetadata::Builder::RestoreManifest(
    int64_t manifest_id, const std::vector<DataFileRef>& files) {
  size_t name_bytes = 0;
  for (const DataFileRef& f : files) name_bytes += f.path.name.size();
  ManifestWriter writer(manifest_id, meta_.partition_interner_, files.size(),
                        name_bytes);
  for (const DataFileRef& f : files) writer.Add(f);
  return writer.Finish();
}

int64_t TableMetadata::Builder::AllocateSnapshotId() {
  return meta_.next_snapshot_id_++;
}

int64_t TableMetadata::Builder::AllocateManifestId() {
  return meta_.next_manifest_id_++;
}

int64_t TableMetadata::Builder::AllocateSequenceNumber() {
  return meta_.next_sequence_number_++;
}

ManifestWriter TableMetadata::Builder::NewManifest(size_t file_count,
                                                   size_t name_bytes) {
  return ManifestWriter(AllocateManifestId(), meta_.partition_interner_,
                        file_count, name_bytes);
}

Result<TableMetadataPtr> TableMetadata::Builder::Build() {
  AUTOCOMP_CHECK(!built_) << "Builder::Build called twice";
  built_ = true;
  if (meta_.name_.empty()) {
    return Status::InvalidArgument("table name must not be empty");
  }
  if (meta_.location_.empty() || meta_.location_.front() != '/') {
    return Status::InvalidArgument("table location must be absolute: " +
                                   meta_.location_);
  }
  AUTOCOMP_RETURN_NOT_OK(meta_.spec_.Validate(meta_.schema_));
  if (meta_.current_snapshot_id_ != 0 &&
      meta_.FindSnapshot(meta_.current_snapshot_id_) == nullptr) {
    return Status::Internal("current snapshot not in snapshot list");
  }
  return std::make_shared<const TableMetadata>(std::move(meta_));
}

ManifestList MaybeMergeManifests(ManifestList manifests, int64_t max_manifests,
                                 TableMetadata::Builder* builder) {
  if (max_manifests <= 0 ||
      static_cast<int64_t>(manifests.size()) <= max_manifests) {
    return manifests;
  }
  // Coalesce smallest manifests first until under the limit; this bounds
  // metadata growth the same way Iceberg's merge-on-write does.
  std::sort(manifests.begin(), manifests.end(),
            [](const ManifestPtr& a, const ManifestPtr& b) {
              if (a->file_count() != b->file_count()) {
                return a->file_count() < b->file_count();
              }
              return a->manifest_id() < b->manifest_id();
            });
  const size_t to_merge =
      manifests.size() - static_cast<size_t>(max_manifests) + 1;
  size_t file_count = 0;
  size_t name_bytes = 0;
  for (size_t i = 0; i < to_merge; ++i) {
    file_count += static_cast<size_t>(manifests[i]->file_count());
    name_bytes += manifests[i]->name_bytes();
  }
  ManifestWriter merged = builder->NewManifest(file_count, name_bytes);
  for (size_t i = 0; i < to_merge; ++i) {
    const Manifest& input = *manifests[i];
    for (size_t j = 0; j < static_cast<size_t>(input.file_count()); ++j) {
      merged.Add(input, j);
    }
  }
  ManifestList out(manifests.begin() + static_cast<ptrdiff_t>(to_merge),
                   manifests.end());
  out.push_back(merged.Finish());
  // Restore deterministic ordering by manifest id.
  std::sort(out.begin(), out.end(),
            [](const ManifestPtr& a, const ManifestPtr& b) {
              return a->manifest_id() < b->manifest_id();
            });
  return out;
}

}  // namespace autocomp::lst
