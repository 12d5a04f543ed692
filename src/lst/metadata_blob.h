/// \file metadata_blob.h
/// \brief Compact binary (de)serialization of table metadata for lane
/// checkpoints.
///
/// The JSON codec (metadata_json.h) exists to model the *storage-side*
/// footprint of metadata files; the fleet simulator's lane evictor
/// (DESIGN.md §10) needs something different: an in-memory snapshot of a
/// table's full lineage that restores bit-exactly and costs a fraction
/// of the live object graph. This codec writes the same logical content
/// as TableMetadataToJson — schema, spec, properties, version counters,
/// manifest pool, snapshot history — as length-prefixed binary, with
/// doubles as raw IEEE-754 bits (no decimal round-trip). Restoration
/// follows the exact recipe of TableMetadataFromJson: manifests rebuilt
/// through Builder::RestoreManifest (one interner of partition keys
/// and directories per lineage), SetSnapshots + AddSnapshot for the
/// current snapshot,
/// RestoreVersion/RestoreCounters last.

#pragma once

#include "common/blob.h"
#include "common/status.h"
#include "lst/table_metadata.h"

namespace autocomp::lst {

/// \brief Appends one metadata version to `writer`.
void TableMetadataToBlob(const TableMetadata& metadata,
                         common::BlobWriter* writer);

/// \brief Reads one metadata version written by TableMetadataToBlob.
/// Round-trips everything the simulator consumes; the revived lineage
/// shares one interner of partition keys and directories.
Result<TableMetadataPtr> TableMetadataFromBlob(common::BlobReader* reader);

}  // namespace autocomp::lst
