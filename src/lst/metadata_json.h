/// \file metadata_json.h
/// \brief JSON (de)serialization of table metadata, and the persistence
/// of metadata files into storage.
///
/// Real LSTs persist every metadata version as a JSON file plus manifest
/// files next to the data; those objects count against HDFS namespace
/// quotas and are themselves a cause of small-file proliferation (§2,
/// cause iv: "Iceberg introduces additional metadata for each table ...
/// This added metadata contributes to small file proliferation"). The
/// serializer makes table state externally durable/inspectable; the
/// MetadataPersister mirrors the storage-side footprint.

#pragma once

#include <string>

#include "common/status.h"
#include "lst/table_metadata.h"
#include "storage/namenode.h"

namespace autocomp::lst {

/// \brief Serializes one metadata version (schema, spec, properties,
/// snapshots, manifests, file entries) to a JSON document.
std::string TableMetadataToJson(const TableMetadata& metadata);

/// \brief Parses a document produced by TableMetadataToJson back into
/// metadata. Round-trips everything AutoComp consumes: name/location,
/// schema fields, partition spec, properties, version counters, and the
/// full snapshot/manifest/file tree.
Result<TableMetadataPtr> TableMetadataFromJson(const std::string& json);

/// \brief Writes the storage-side footprint of a metadata version:
/// `<location>/metadata/vNNN.metadata.json` plus one
/// `<location>/metadata/manifest-<id>.avro` object per manifest of the
/// current snapshot that is not yet persisted. Returns the number of
/// storage objects created. These objects count toward namespace quotas
/// exactly like data files.
Result<int64_t> PersistMetadataFootprint(
    storage::NameNode* dfs, const TableMetadata& metadata);

/// \brief Deletes metadata objects of versions at or below
/// `up_to_version` (metadata expiry, paired with snapshot expiry).
/// Returns the number of objects removed.
Result<int64_t> ExpireMetadataFootprint(
    storage::NameNode* dfs, const TableMetadata& metadata,
    int64_t up_to_version);

/// \brief Deletes persisted manifest objects no retained snapshot of
/// `metadata` references any more (the storage-side counterpart of
/// snapshot expiry: without it, 30-day lineages leak one
/// `manifest-*.avro` per expired commit). Returns the number of objects
/// removed.
Result<int64_t> ExpireManifestFootprint(
    storage::NameNode* dfs, const TableMetadata& metadata);

}  // namespace autocomp::lst
