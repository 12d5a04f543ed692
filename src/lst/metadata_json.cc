#include "lst/metadata_json.h"

#include <cstdio>
#include <map>
#include <set>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/units.h"

namespace autocomp::lst {

namespace {

// ----- enum <-> string ------------------------------------------------

Result<FieldType> FieldTypeFromName(const std::string& name) {
  static const std::map<std::string, FieldType> kByName = {
      {"bool", FieldType::kBool},       {"int32", FieldType::kInt32},
      {"int64", FieldType::kInt64},     {"double", FieldType::kDouble},
      {"string", FieldType::kString},   {"date", FieldType::kDate},
      {"timestamp", FieldType::kTimestamp},
  };
  const auto it = kByName.find(name);
  if (it == kByName.end()) {
    return Status::InvalidArgument("unknown field type: " + name);
  }
  return it->second;
}

Result<Transform> TransformFromName(const std::string& name) {
  static const std::map<std::string, Transform> kByName = {
      {"identity", Transform::kIdentity}, {"month", Transform::kMonth},
      {"day", Transform::kDay},           {"year", Transform::kYear},
      {"bucket", Transform::kBucket},
  };
  const auto it = kByName.find(name);
  if (it == kByName.end()) {
    return Status::InvalidArgument("unknown transform: " + name);
  }
  return it->second;
}

Result<SnapshotOperation> OperationFromName(const std::string& name) {
  static const std::map<std::string, SnapshotOperation> kByName = {
      {"append", SnapshotOperation::kAppend},
      {"overwrite", SnapshotOperation::kOverwrite},
      {"replace", SnapshotOperation::kReplace},
      {"delete", SnapshotOperation::kDelete},
  };
  const auto it = kByName.find(name);
  if (it == kByName.end()) {
    return Status::InvalidArgument("unknown snapshot operation: " + name);
  }
  return it->second;
}

// ----- serialization ---------------------------------------------------

JsonValue FileToJson(const DataFileRef& f) {
  JsonValue obj = JsonValue::Object();
  obj.Set("path", f.path.str());
  obj.Set("partition", std::string(f.partition));
  obj.Set("content", f.content == FileContent::kPositionDeletes
                         ? "position-deletes"
                         : "data");
  obj.Set("file-size-bytes", f.file_size_bytes);
  obj.Set("record-count", f.record_count);
  obj.Set("clustered", f.clustered);
  obj.Set("added-snapshot-id", f.added_snapshot_id);
  obj.Set("sequence-number", f.sequence_number);
  return obj;
}

Result<DataFile> FileFromJson(const JsonValue& obj) {
  DataFile f;
  AUTOCOMP_ASSIGN_OR_RETURN(f.path, obj.Get("path").AsString());
  AUTOCOMP_ASSIGN_OR_RETURN(f.partition, obj.Get("partition").AsString());
  AUTOCOMP_ASSIGN_OR_RETURN(std::string content,
                            obj.Get("content").AsString());
  f.content = content == "position-deletes" ? FileContent::kPositionDeletes
                                            : FileContent::kData;
  AUTOCOMP_ASSIGN_OR_RETURN(f.file_size_bytes,
                            obj.Get("file-size-bytes").AsInt());
  AUTOCOMP_ASSIGN_OR_RETURN(f.record_count, obj.Get("record-count").AsInt());
  AUTOCOMP_ASSIGN_OR_RETURN(f.clustered, obj.Get("clustered").AsBool());
  AUTOCOMP_ASSIGN_OR_RETURN(f.added_snapshot_id,
                            obj.Get("added-snapshot-id").AsInt());
  AUTOCOMP_ASSIGN_OR_RETURN(f.sequence_number,
                            obj.Get("sequence-number").AsInt());
  return f;
}

}  // namespace

std::string TableMetadataToJson(const TableMetadata& metadata) {
  JsonValue root = JsonValue::Object();
  root.Set("format-version", 1);
  root.Set("name", metadata.name());
  root.Set("location", metadata.location());
  root.Set("version", metadata.version());
  root.Set("created-at", metadata.created_at());
  root.Set("last-updated-at", metadata.last_updated_at());
  root.Set("current-snapshot-id", metadata.current_snapshot_id());
  root.Set("next-snapshot-id", metadata.next_snapshot_id());
  root.Set("next-manifest-id", metadata.next_manifest_id());
  root.Set("next-sequence-number", metadata.next_sequence_number());

  // Schema.
  JsonValue schema = JsonValue::Object();
  schema.Set("schema-id", metadata.schema().schema_id());
  JsonValue fields = JsonValue::Array();
  for (const Field& f : metadata.schema().fields()) {
    JsonValue field = JsonValue::Object();
    field.Set("id", f.id);
    field.Set("name", f.name);
    field.Set("type", FieldTypeName(f.type));
    field.Set("required", f.required);
    fields.Append(std::move(field));
  }
  schema.Set("fields", std::move(fields));
  root.Set("schema", std::move(schema));

  // Partition spec.
  JsonValue spec = JsonValue::Object();
  spec.Set("spec-id", metadata.partition_spec().spec_id());
  JsonValue spec_fields = JsonValue::Array();
  for (const PartitionField& pf : metadata.partition_spec().fields()) {
    JsonValue field = JsonValue::Object();
    field.Set("source-id", pf.source_field_id);
    field.Set("transform", TransformName(pf.transform));
    field.Set("name", pf.name);
    field.Set("bucket-count", pf.bucket_count);
    spec_fields.Append(std::move(field));
  }
  spec.Set("fields", std::move(spec_fields));
  root.Set("partition-spec", std::move(spec));

  // Properties.
  JsonValue properties = JsonValue::Object();
  for (const auto& [key, value] : metadata.properties().entries()) {
    properties.Set(key, value);
  }
  root.Set("properties", std::move(properties));

  // Manifest pool: unique manifests across all snapshots (shared between
  // versions exactly like Iceberg reuses manifest files).
  std::map<int64_t, ManifestPtr> pool;
  for (const Snapshot& s : metadata.snapshots()) {
    for (const ManifestPtr& m : s.manifests) {
      pool.emplace(m->manifest_id(), m);
    }
  }
  JsonValue manifests = JsonValue::Array();
  for (const auto& [id, manifest] : pool) {
    JsonValue m = JsonValue::Object();
    m.Set("id", id);
    JsonValue files = JsonValue::Array();
    for (const DataFileRef& f : *manifest) files.Append(FileToJson(f));
    m.Set("files", std::move(files));
    manifests.Append(std::move(m));
  }
  root.Set("manifests", std::move(manifests));

  // Snapshots referencing manifest ids.
  JsonValue snapshots = JsonValue::Array();
  for (const Snapshot& s : metadata.snapshots()) {
    JsonValue snap = JsonValue::Object();
    snap.Set("snapshot-id", s.snapshot_id);
    snap.Set("parent-snapshot-id", s.parent_snapshot_id);
    snap.Set("sequence-number", s.sequence_number);
    snap.Set("timestamp", s.timestamp);
    snap.Set("operation", SnapshotOperationName(s.operation));
    snap.Set("added-files", s.added_files);
    snap.Set("deleted-files", s.deleted_files);
    snap.Set("added-bytes", s.added_bytes);
    snap.Set("deleted-bytes", s.deleted_bytes);
    snap.Set("added-records", s.added_records);
    JsonValue manifest_ids = JsonValue::Array();
    for (const ManifestPtr& m : s.manifests) {
      manifest_ids.Append(m->manifest_id());
    }
    snap.Set("manifest-ids", std::move(manifest_ids));
    JsonValue touched = JsonValue::Array();
    for (const std::string& p : s.touched_partitions) touched.Append(p);
    snap.Set("touched-partitions", std::move(touched));
    JsonValue removed = JsonValue::Array();
    for (const std::string_view p : s.removed_paths) {
      removed.Append(std::string(p));
    }
    snap.Set("removed-paths", std::move(removed));
    snapshots.Append(std::move(snap));
  }
  root.Set("snapshots", std::move(snapshots));
  return root.Dump();
}

Result<TableMetadataPtr> TableMetadataFromJson(const std::string& json) {
  AUTOCOMP_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(json));
  if (root.Get("format-version").as_int() != 1) {
    return Status::InvalidArgument("unsupported metadata format version");
  }

  // Schema.
  const JsonValue& schema_json = root.Get("schema");
  std::vector<Field> fields;
  for (const JsonValue& fj : schema_json.Get("fields").items()) {
    Field f;
    AUTOCOMP_ASSIGN_OR_RETURN(int64_t id, fj.Get("id").AsInt());
    f.id = static_cast<int32_t>(id);
    AUTOCOMP_ASSIGN_OR_RETURN(f.name, fj.Get("name").AsString());
    AUTOCOMP_ASSIGN_OR_RETURN(std::string type_name,
                              fj.Get("type").AsString());
    AUTOCOMP_ASSIGN_OR_RETURN(f.type, FieldTypeFromName(type_name));
    AUTOCOMP_ASSIGN_OR_RETURN(f.required, fj.Get("required").AsBool());
    fields.push_back(std::move(f));
  }
  Schema schema(static_cast<int32_t>(schema_json.Get("schema-id").as_int()),
                std::move(fields));

  // Partition spec.
  const JsonValue& spec_json = root.Get("partition-spec");
  std::vector<PartitionField> spec_fields;
  for (const JsonValue& fj : spec_json.Get("fields").items()) {
    PartitionField pf;
    AUTOCOMP_ASSIGN_OR_RETURN(int64_t source, fj.Get("source-id").AsInt());
    pf.source_field_id = static_cast<int32_t>(source);
    AUTOCOMP_ASSIGN_OR_RETURN(std::string transform,
                              fj.Get("transform").AsString());
    AUTOCOMP_ASSIGN_OR_RETURN(pf.transform, TransformFromName(transform));
    AUTOCOMP_ASSIGN_OR_RETURN(pf.name, fj.Get("name").AsString());
    pf.bucket_count =
        static_cast<int32_t>(fj.Get("bucket-count").as_int());
    spec_fields.push_back(std::move(pf));
  }
  PartitionSpec spec(static_cast<int32_t>(spec_json.Get("spec-id").as_int()),
                     std::move(spec_fields));

  AUTOCOMP_ASSIGN_OR_RETURN(std::string name, root.Get("name").AsString());
  AUTOCOMP_ASSIGN_OR_RETURN(std::string location,
                            root.Get("location").AsString());
  TableMetadata::Builder builder(name, location, std::move(schema),
                                 std::move(spec));

  // Properties.
  Config properties;
  for (const auto& [key, value] : root.Get("properties").members()) {
    AUTOCOMP_ASSIGN_OR_RETURN(std::string v, value.AsString());
    properties.Set(key, v);
  }
  builder.SetProperties(std::move(properties));
  builder.SetCreatedAt(root.Get("created-at").as_int());

  // Manifest pool, revived through the builder so the restored lineage
  // interns partition keys into a single arena (and successor commits
  // inherit it via Builder(base)).
  std::map<int64_t, ManifestPtr> pool;
  for (const JsonValue& mj : root.Get("manifests").items()) {
    AUTOCOMP_ASSIGN_OR_RETURN(int64_t id, mj.Get("id").AsInt());
    std::vector<DataFile> files;
    for (const JsonValue& fj : mj.Get("files").items()) {
      AUTOCOMP_ASSIGN_OR_RETURN(DataFile f, FileFromJson(fj));
      files.push_back(std::move(f));
    }
    std::vector<DataFileRef> views;
    views.reserve(files.size());
    for (const DataFile& f : files) views.push_back(f.view());
    pool.emplace(id, builder.RestoreManifest(id, views));
  }

  // Snapshots. Build()'s consistency checks require the current snapshot
  // to exist; reconstruct history in order via SetSnapshots + AddSnapshot
  // on the final (current) one.
  std::vector<Snapshot> snapshots;
  for (const JsonValue& sj : root.Get("snapshots").items()) {
    Snapshot s;
    AUTOCOMP_ASSIGN_OR_RETURN(s.snapshot_id, sj.Get("snapshot-id").AsInt());
    AUTOCOMP_ASSIGN_OR_RETURN(s.parent_snapshot_id,
                              sj.Get("parent-snapshot-id").AsInt());
    AUTOCOMP_ASSIGN_OR_RETURN(s.sequence_number,
                              sj.Get("sequence-number").AsInt());
    AUTOCOMP_ASSIGN_OR_RETURN(s.timestamp, sj.Get("timestamp").AsInt());
    AUTOCOMP_ASSIGN_OR_RETURN(std::string op,
                              sj.Get("operation").AsString());
    AUTOCOMP_ASSIGN_OR_RETURN(s.operation, OperationFromName(op));
    s.added_files = sj.Get("added-files").as_int();
    s.deleted_files = sj.Get("deleted-files").as_int();
    s.added_bytes = sj.Get("added-bytes").as_int();
    s.deleted_bytes = sj.Get("deleted-bytes").as_int();
    s.added_records = sj.Get("added-records").as_int();
    for (const JsonValue& id : sj.Get("manifest-ids").items()) {
      const auto it = pool.find(id.as_int());
      if (it == pool.end()) {
        return Status::InvalidArgument("snapshot references unknown manifest " +
                                       std::to_string(id.as_int()));
      }
      s.manifests.push_back(it->second);
    }
    for (const JsonValue& p : sj.Get("touched-partitions").items()) {
      AUTOCOMP_ASSIGN_OR_RETURN(std::string partition, p.AsString());
      s.touched_partitions.insert(std::move(partition));
    }
    std::vector<std::string_view> removed;
    for (const JsonValue& p : sj.Get("removed-paths").items()) {
      if (p.type() != JsonValue::Type::kString) {
        return Status::InvalidArgument("removed path is not a string");
      }
      removed.push_back(p.as_string());
    }
    s.removed_paths = SortedPathList::FromPaths(std::move(removed));
    snapshots.push_back(std::move(s));
  }
  if (!snapshots.empty()) {
    Snapshot current = std::move(snapshots.back());
    snapshots.pop_back();
    builder.SetSnapshots(std::move(snapshots));
    builder.AddSnapshot(std::move(current));
  }
  builder.SetLastUpdatedAt(root.Get("last-updated-at").as_int());
  builder.RestoreVersion(root.Get("version").as_int());
  builder.RestoreCounters(root.Get("next-snapshot-id").as_int(),
                          root.Get("next-manifest-id").as_int(),
                          root.Get("next-sequence-number").as_int());
  const int64_t current_id = root.Get("current-snapshot-id").as_int();
  AUTOCOMP_ASSIGN_OR_RETURN(TableMetadataPtr meta, builder.Build());
  if (meta->current_snapshot_id() != current_id) {
    return Status::InvalidArgument(
        "current-snapshot-id does not match the last snapshot");
  }
  return meta;
}

Result<int64_t> PersistMetadataFootprint(storage::NameNode* dfs,
                                         const TableMetadata& metadata) {
  int64_t created = 0;
  const std::string json = TableMetadataToJson(metadata);
  char name[64];
  std::snprintf(name, sizeof(name), "/metadata/v%06lld.metadata.json",
                static_cast<long long>(metadata.version()));
  const std::string metadata_path = metadata.location() + name;
  if (!dfs->Exists(metadata_path)) {
    AUTOCOMP_RETURN_NOT_OK(dfs->CreateFile(
        metadata_path, static_cast<int64_t>(json.size()), 0));
    ++created;
  }
  const Snapshot* snap = metadata.current_snapshot();
  if (snap != nullptr) {
    for (const ManifestPtr& m : snap->manifests) {
      char mname[64];
      std::snprintf(mname, sizeof(mname), "/metadata/manifest-%06lld.avro",
                    static_cast<long long>(m->manifest_id()));
      const std::string manifest_path = metadata.location() + mname;
      if (!dfs->Exists(manifest_path)) {
        // Manifest size model: fixed header + ~200B per file entry.
        AUTOCOMP_RETURN_NOT_OK(dfs->CreateFile(
            manifest_path, 8 * kKiB + 200 * m->file_count(), 0));
        ++created;
      }
    }
  }
  return created;
}

Result<int64_t> ExpireMetadataFootprint(storage::NameNode* dfs,
                                        const TableMetadata& metadata,
                                        int64_t up_to_version) {
  int64_t removed = 0;
  for (const storage::FileInfo& info :
       dfs->ListFiles(metadata.location() + "/metadata")) {
    // Match "vNNNNNN.metadata.json" and extract the version.
    const size_t slash = info.path.rfind('/');
    const std::string base = info.path.substr(slash + 1);
    long long version = 0;
    if (std::sscanf(base.c_str(), "v%lld.metadata.json", &version) == 1 &&
        version <= up_to_version) {
      AUTOCOMP_RETURN_NOT_OK(dfs->DeleteFile(info.path));
      ++removed;
    }
  }
  return removed;
}

Result<int64_t> ExpireManifestFootprint(storage::NameNode* dfs,
                                        const TableMetadata& metadata) {
  std::set<long long> referenced;
  for (const Snapshot& s : metadata.snapshots()) {
    for (const ManifestPtr& m : s.manifests) {
      referenced.insert(static_cast<long long>(m->manifest_id()));
    }
  }
  int64_t removed = 0;
  for (const storage::FileInfo& info :
       dfs->ListFiles(metadata.location() + "/metadata")) {
    const size_t slash = info.path.rfind('/');
    const std::string base = info.path.substr(slash + 1);
    long long manifest_id = 0;
    if (std::sscanf(base.c_str(), "manifest-%lld.avro", &manifest_id) == 1 &&
        referenced.count(manifest_id) == 0) {
      AUTOCOMP_RETURN_NOT_OK(dfs->DeleteFile(info.path));
      ++removed;
    }
  }
  return removed;
}

}  // namespace autocomp::lst
