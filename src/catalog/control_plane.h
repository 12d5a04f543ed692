/// \file control_plane.h
/// \brief OpenHouse-style control plane: declarative table policies plus
/// data services that reconcile observed and desired state (§2).

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/blob.h"
#include "common/units.h"

namespace autocomp::catalog {

/// \brief Desired-state policy attached to a table.
struct TablePolicy {
  /// Target on-disk file size for writes and compaction.
  int64_t target_file_size_bytes = 512 * kMiB;
  /// Snapshots older than this are expired by the retention service.
  SimTime snapshot_retention = 3 * kDay;
  /// Tables can opt out of automatic maintenance.
  bool compaction_enabled = true;
  /// Rewrite with a clustering layout (§8): costlier compaction, faster
  /// selective scans afterwards.
  bool clustering_enabled = false;
  /// Tenant-facing priority hint (1 = normal); multiplies ranking scores.
  double priority = 1.0;
  /// Per-table compaction-policy override: a core::PolicySpec string
  /// (core/policy.h), e.g.
  /// "trigger=staleness;granularity=table;movement=merge;picker=moop".
  /// Empty = inherit the service's fleet-wide policy. The scheduler
  /// applies the movement axis per request; unparsable strings are
  /// ignored (the service cannot crash on a bad catalog entry).
  std::string compaction_policy;
};

/// \brief Result of one retention-service sweep.
struct RetentionReport {
  int64_t tables_processed = 0;
  int64_t snapshots_expired = 0;
  int64_t files_deleted = 0;
  int64_t bytes_deleted = 0;
  /// Metadata objects (metadata.json versions + manifest-*.avro files)
  /// reclaimed alongside the snapshots, when the catalog persists its
  /// metadata footprint (CatalogOptions::persist_metadata).
  int64_t metadata_objects_deleted = 0;
};

/// \brief Control plane over a Catalog: policy registry + data services.
///
/// In the paper, OpenHouse hosts both the declarative catalog and the data
/// services (retention, compaction) that act on it; AutoComp plugs into
/// this layer (Figure 5). The compaction service itself lives in
/// src/core; this class provides the policy registry and the snapshot
/// retention service whose file deletions make compaction's storage-level
/// effect visible.
class ControlPlane {
 public:
  explicit ControlPlane(Catalog* catalog);

  Catalog* catalog() { return catalog_; }

  /// Sets the policy for a table (creating or replacing it).
  void SetPolicy(const std::string& qualified_name, TablePolicy policy);

  /// Policy for a table; default-constructed policy if none was set.
  TablePolicy GetPolicy(const std::string& qualified_name) const;

  /// Expires old snapshots for every table per its policy and deletes the
  /// orphaned files from storage. Returns what was reclaimed.
  RetentionReport RunRetentionService();

  /// Expires snapshots for one table (used right after compaction so the
  /// rewrite's input files actually leave the storage layer).
  /// `retention_override`, when set, replaces the policy's retention
  /// window for this run — passing 0 expires everything but the current
  /// snapshot, which is how the compaction data service reaps the files
  /// it just rewrote.
  Result<RetentionReport> RunRetentionFor(
      const std::string& qualified_name,
      std::optional<SimTime> retention_override = std::nullopt);

  /// \name Lane checkpoint (DESIGN.md §10): the policy registry is the
  /// control plane's only mutable state.
  /// @{
  void SaveState(common::BlobWriter* w) const {
    w->WriteU64(policies_.size());
    for (const auto& [name, p] : policies_) {
      w->WriteString(name);
      w->WriteI64(p.target_file_size_bytes);
      w->WriteI64(p.snapshot_retention);
      w->WriteBool(p.compaction_enabled);
      w->WriteBool(p.clustering_enabled);
      w->WriteF64(p.priority);
      w->WriteString(p.compaction_policy);
    }
  }
  void RestoreState(common::BlobReader* r) {
    policies_.clear();
    const uint64_t n = r->ReadCount();
    for (uint64_t i = 0; i < n && r->ok(); ++i) {
      std::string name = r->ReadString();
      TablePolicy p;
      p.target_file_size_bytes = r->ReadI64();
      p.snapshot_retention = r->ReadI64();
      p.compaction_enabled = r->ReadBool();
      p.clustering_enabled = r->ReadBool();
      p.priority = r->ReadF64();
      p.compaction_policy = r->ReadString();
      policies_.emplace(std::move(name), p);
    }
  }
  /// @}

 private:
  Catalog* catalog_;
  std::map<std::string, TablePolicy> policies_;
};

}  // namespace autocomp::catalog
