#include "lst/metadata_blob.h"

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace autocomp::lst {

namespace {

/// `path` is `f.path` rendered as one string.
void FileToBlob(const DataFileRef& f, std::string_view path,
                common::BlobWriter* w) {
  w->WriteString(path);
  w->WriteString(f.partition);
  w->WriteI32(static_cast<int32_t>(f.content));
  w->WriteI64(f.file_size_bytes);
  w->WriteI64(f.record_count);
  w->WriteBool(f.clustered);
  w->WriteI64(f.added_snapshot_id);
  w->WriteI64(f.sequence_number);
}

/// The entry's strings view the reader's string arena.
DataFileRef FileFromBlob(common::BlobReader* r) {
  DataFileRef f;
  f.path = PathRef::Split(r->ReadStringView());
  f.partition = r->ReadStringView();
  f.content = static_cast<FileContent>(r->ReadI32());
  f.file_size_bytes = r->ReadI64();
  f.record_count = r->ReadI64();
  f.clustered = r->ReadBool();
  f.added_snapshot_id = r->ReadI64();
  f.sequence_number = r->ReadI64();
  return f;
}

}  // namespace

void TableMetadataToBlob(const TableMetadata& metadata,
                         common::BlobWriter* w) {
  w->WriteString(metadata.name());
  w->WriteString(metadata.location());
  w->WriteI64(metadata.version());
  w->WriteI64(metadata.created_at());
  w->WriteI64(metadata.last_updated_at());
  w->WriteI64(metadata.current_snapshot_id());
  w->WriteI64(metadata.next_snapshot_id());
  w->WriteI64(metadata.next_manifest_id());
  w->WriteI64(metadata.next_sequence_number());

  const Schema& schema = metadata.schema();
  w->WriteI32(schema.schema_id());
  w->WriteU64(schema.fields().size());
  for (const Field& f : schema.fields()) {
    w->WriteI32(f.id);
    w->WriteString(f.name);
    w->WriteI32(static_cast<int32_t>(f.type));
    w->WriteBool(f.required);
  }

  const PartitionSpec& spec = metadata.partition_spec();
  w->WriteI32(spec.spec_id());
  w->WriteU64(spec.fields().size());
  for (const PartitionField& pf : spec.fields()) {
    w->WriteI32(pf.source_field_id);
    w->WriteI32(static_cast<int32_t>(pf.transform));
    w->WriteString(pf.name);
    w->WriteI32(pf.bucket_count);
  }

  const auto& properties = metadata.properties().entries();
  w->WriteU64(properties.size());
  for (const auto& [key, value] : properties) {
    w->WriteString(key);
    w->WriteString(value);
  }

  // Manifest pool: each distinct manifest once, in id order, exactly as
  // the JSON codec pools them (snapshots share unchanged manifests).
  std::map<int64_t, ManifestPtr> pool;
  for (const Snapshot& s : metadata.snapshots()) {
    for (const ManifestPtr& m : s.manifests) {
      pool.emplace(m->manifest_id(), m);
    }
  }
  w->WriteU64(pool.size());
  std::string path;  // each entry's path, rendered into one buffer
  for (const auto& [id, manifest] : pool) {
    w->WriteI64(id);
    w->WriteU64(static_cast<uint64_t>(manifest->file_count()));
    for (const DataFileRef& f : *manifest) {
      f.path.AssignTo(&path);
      FileToBlob(f, path, w);
    }
  }

  w->WriteU64(metadata.snapshots().size());
  for (const Snapshot& s : metadata.snapshots()) {
    w->WriteI64(s.snapshot_id);
    w->WriteI64(s.parent_snapshot_id);
    w->WriteI64(s.sequence_number);
    w->WriteI64(s.timestamp);
    w->WriteI32(static_cast<int32_t>(s.operation));
    w->WriteI64(s.added_files);
    w->WriteI64(s.deleted_files);
    w->WriteI64(s.added_bytes);
    w->WriteI64(s.deleted_bytes);
    w->WriteI64(s.added_records);
    w->WriteU64(s.manifests.size());
    for (const ManifestPtr& m : s.manifests) w->WriteI64(m->manifest_id());
    w->WriteU64(s.touched_partitions.size());
    for (const std::string& p : s.touched_partitions) w->WriteString(p);
    w->WriteU64(s.removed_paths.size());
    for (const std::string_view p : s.removed_paths) w->WriteString(p);
  }
}

Result<TableMetadataPtr> TableMetadataFromBlob(common::BlobReader* r) {
  std::string name = r->ReadString();
  std::string location = r->ReadString();
  const int64_t version = r->ReadI64();
  const SimTime created_at = r->ReadI64();
  const SimTime last_updated_at = r->ReadI64();
  const int64_t current_id = r->ReadI64();
  const int64_t next_snapshot_id = r->ReadI64();
  const int64_t next_manifest_id = r->ReadI64();
  const int64_t next_sequence_number = r->ReadI64();

  const int32_t schema_id = r->ReadI32();
  std::vector<Field> fields(r->ReadCount());
  for (Field& f : fields) {
    f.id = r->ReadI32();
    f.name = r->ReadString();
    f.type = static_cast<FieldType>(r->ReadI32());
    f.required = r->ReadBool();
  }
  Schema schema(schema_id, std::move(fields));

  const int32_t spec_id = r->ReadI32();
  std::vector<PartitionField> spec_fields(r->ReadCount());
  for (PartitionField& pf : spec_fields) {
    pf.source_field_id = r->ReadI32();
    pf.transform = static_cast<Transform>(r->ReadI32());
    pf.name = r->ReadString();
    pf.bucket_count = r->ReadI32();
  }
  PartitionSpec spec(spec_id, std::move(spec_fields));

  TableMetadata::Builder builder(std::move(name), std::move(location),
                                 std::move(schema), std::move(spec));

  Config properties;
  const uint64_t property_count = r->ReadCount();
  for (uint64_t i = 0; i < property_count && r->ok(); ++i) {
    std::string key = r->ReadString();
    properties.Set(key, r->ReadString());
  }
  builder.SetProperties(std::move(properties));
  builder.SetCreatedAt(created_at);

  // Revive manifests through the builder so the restored lineage
  // interns partition keys into a single arena (see
  // TableMetadataFromJson, which this mirrors step for step). Entries
  // view the reader's string arena until their manifest has copied them.
  std::map<int64_t, ManifestPtr> pool;
  std::vector<DataFileRef> files;
  const uint64_t manifest_count = r->ReadCount();
  for (uint64_t i = 0; i < manifest_count && r->ok(); ++i) {
    const int64_t id = r->ReadI64();
    files.resize(r->ReadCount());
    for (DataFileRef& f : files) f = FileFromBlob(r);
    pool.emplace(id, builder.RestoreManifest(id, files));
  }

  std::vector<Snapshot> snapshots(r->ReadCount());
  for (Snapshot& s : snapshots) {
    if (!r->ok()) break;
    s.snapshot_id = r->ReadI64();
    s.parent_snapshot_id = r->ReadI64();
    s.sequence_number = r->ReadI64();
    s.timestamp = r->ReadI64();
    s.operation = static_cast<SnapshotOperation>(r->ReadI32());
    s.added_files = r->ReadI64();
    s.deleted_files = r->ReadI64();
    s.added_bytes = r->ReadI64();
    s.deleted_bytes = r->ReadI64();
    s.added_records = r->ReadI64();
    const uint64_t manifest_ids = r->ReadCount();
    for (uint64_t i = 0; i < manifest_ids && r->ok(); ++i) {
      const auto it = pool.find(r->ReadI64());
      if (it == pool.end()) {
        return Status::Internal("checkpoint references unknown manifest");
      }
      s.manifests.push_back(it->second);
    }
    const uint64_t touched = r->ReadCount();
    for (uint64_t i = 0; i < touched && r->ok(); ++i) {
      s.touched_partitions.insert(r->ReadString());
    }
    std::vector<std::string_view> removed(r->ReadCount());
    for (std::string_view& p : removed) p = r->ReadStringView();
    s.removed_paths = SortedPathList::FromPaths(std::move(removed));
  }
  if (!snapshots.empty()) {
    Snapshot current = std::move(snapshots.back());
    snapshots.pop_back();
    builder.SetSnapshots(std::move(snapshots));
    builder.AddSnapshot(std::move(current));
  }
  builder.SetLastUpdatedAt(last_updated_at);
  builder.RestoreVersion(version);
  builder.RestoreCounters(next_snapshot_id, next_manifest_id,
                          next_sequence_number);
  if (!r->ok()) return Status::Internal("truncated metadata checkpoint");
  AUTOCOMP_ASSIGN_OR_RETURN(TableMetadataPtr meta, builder.Build());
  if (meta->current_snapshot_id() != current_id) {
    return Status::Internal(
        "checkpoint current-snapshot-id does not match the last snapshot");
  }
  return meta;
}

}  // namespace autocomp::lst
