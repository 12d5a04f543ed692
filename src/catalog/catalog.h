/// \file catalog.h
/// \brief Catalog: databases, tables, and the atomic commit point.
///
/// Models the catalog role OpenHouse plays in the paper: it owns table
/// metadata pointers and swaps them atomically on commit (the CAS where
/// optimistic-concurrency conflicts surface), groups tables into
/// databases (one per tenant, each with an HDFS namespace quota — the
/// signal behind the production w1 weighting in §7), and exposes listing
/// APIs the AutoComp candidate generator walks.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/blob.h"
#include "common/clock.h"
#include "common/config.h"
#include "common/status.h"
#include "lst/commit_delta.h"
#include "lst/table.h"
#include "lst/table_metadata.h"
#include "storage/namenode.h"

namespace autocomp::catalog {

/// \brief Commit-traffic counters (cluster-side conflicts in Table 1 are
/// failed compaction commits recorded here by the engine).
struct CatalogStats {
  int64_t commit_attempts = 0;
  int64_t commit_conflicts = 0;
  int64_t tables_created = 0;
  int64_t tables_dropped = 0;
};

/// \brief Per-table access telemetry the control plane surfaces to
/// AutoComp's workload-aware traits (§8 "Workload Awareness": align
/// layout optimization with query patterns and access frequency).
struct TableAccessStats {
  int64_t read_count = 0;
  SimTime last_read_at = 0;
};

/// \brief What a commit listener learns about one table mutation.
///
/// Carries everything an incremental consumer needs so that listeners
/// never have to call back into the catalog (they run outside the
/// catalog lock; a re-entrant LoadTable could also observe a *newer*
/// version than the one that triggered the event).
struct CommitEvent {
  /// Qualified "db.table" name.
  std::string table;
  /// The metadata version the commit installed; nullptr when the table
  /// was dropped.
  lst::TableMetadataPtr metadata;
  /// Exact live-set change, when the commit path produced one (only
  /// valid for the duration of the callback). nullptr for drops and for
  /// wholesale history edits (snapshot expiry, rollback) — consumers
  /// must then rebuild from `metadata`.
  const lst::CommitDelta* delta = nullptr;
};

/// \brief Catalog behaviour knobs.
struct CatalogOptions {
  /// Persist every committed metadata version (and its manifests) as
  /// storage objects under `<table>/metadata/` — the way real LSTs do.
  /// Those objects count against namespace quotas and are themselves a
  /// small-file source (§2 cause iv: "Iceberg introduces additional
  /// metadata for each table ... contributes to small file
  /// proliferation"). Off by default to keep the metadata-level
  /// simulation cheap; turn on to study the metadata footprint.
  bool persist_metadata = false;
  /// With persistence on, keep at most this many metadata.json versions
  /// per table (older ones are expired on commit).
  int64_t metadata_versions_retained = 3;
};

/// \brief In-memory catalog implementing the LST MetadataStore.
///
/// Databases map to storage directories ("/data/<db>") so that namespace
/// quotas set on the database directory cover all of its tables' files.
class Catalog final : public lst::MetadataStore {
 public:
  Catalog(const Clock* clock, storage::NameNode* dfs,
          CatalogOptions options = {});

  /// Creates a database; `namespace_quota_objects` (0 = unlimited) is
  /// installed as the storage namespace quota for the database directory.
  Status CreateDatabase(const std::string& db,
                        int64_t namespace_quota_objects = 0);

  bool DatabaseExists(const std::string& db) const;
  std::vector<std::string> ListDatabases() const;

  /// Creates a table `db`.`table` with an empty snapshot history.
  Result<lst::Table> CreateTable(const std::string& db,
                                 const std::string& table, lst::Schema schema,
                                 lst::PartitionSpec spec,
                                 Config properties = {});

  Result<lst::Table> GetTable(const std::string& qualified_name);
  Status DropTable(const std::string& qualified_name);
  std::vector<std::string> ListTables(const std::string& db) const;
  /// All "db.table" names across all databases.
  std::vector<std::string> ListAllTables() const;

  /// Storage quota usage for a database's directory.
  storage::QuotaStatus DatabaseQuota(const std::string& db) const;

  /// Records one read of `qualified_name` (called by the query engine's
  /// scan path); feeds the workload-aware traits.
  void RecordTableRead(const std::string& qualified_name);
  TableAccessStats GetAccessStats(const std::string& qualified_name) const;

  /// \name Commit listeners
  /// Invoked with a CommitEvent after every successful metadata swap
  /// (CommitTable / CommitTableWithDelta) and on DropTable. Every commit
  /// path — lst::Transaction, snapshot expiry, the compaction runner —
  /// funnels through CommitTable, so a listener observes all table
  /// mutations. Listeners run OUTSIDE the catalog lock (so they may not
  /// assume LoadTable still returns event.metadata) and may therefore be
  /// invoked out of commit order under concurrent writers — consumers
  /// must order by event.metadata->version(). Consumer:
  /// core::IncrementalStatsIndex (O(delta) aggregate maintenance).
  /// Listeners must not commit re-entrantly.
  /// @{
  using CommitListener = std::function<void(const CommitEvent& event)>;
  int64_t AddCommitListener(CommitListener listener);
  void RemoveCommitListener(int64_t id);
  /// @}

  /// Storage directory of a database ("/data/<db>").
  static std::string DatabaseLocation(const std::string& db);
  /// Storage directory of a table ("/data/<db>/<table>").
  static std::string TableLocation(const std::string& qualified_name);

  const CatalogStats& stats() const { return stats_; }
  storage::NameNode* filesystem() { return dfs_; }
  const Clock* clock() const { return clock_; }
  const CatalogOptions& options() const { return options_; }

  /// \name Lane checkpoint (DESIGN.md §10)
  /// Serializes databases, table metadata lineages (binary codec, see
  /// lst/metadata_blob.h), access telemetry and commit counters. Commit
  /// listeners are NOT checkpointed: the fleet driver only evicts lanes
  /// without an attached service, and those lanes register none.
  /// @{
  void SaveState(common::BlobWriter* w) const;
  Status RestoreState(common::BlobReader* r);
  /// @}

  /// Installs (or clears, with nullptr) the fault injector. Transactions
  /// pick it up through MetadataStore::fault_injector() (commit-site
  /// faults), and the commit path arms fault::kSiteCatalogCommitEvent:
  /// kDropEvent suppresses the listener notification for one commit,
  /// kDuplicateEvent delivers it twice — exercising the at-least-once /
  /// at-most-once tolerance of incremental consumers.
  void SetFaultInjector(fault::FaultInjector* injector) { fault_ = injector; }

  /// Installs (or clears, with nullptr) the trace recorder. Transactions
  /// pick it up through MetadataStore::trace_recorder() and record their
  /// commit outcomes ("commit.success" / "commit.conflict") against it.
  void SetTraceRecorder(obs::TraceRecorder* trace) { trace_ = trace; }

  // MetadataStore:
  Result<lst::TableMetadataPtr> LoadTable(
      const std::string& name) const override;
  Status CommitTable(const std::string& name, int64_t base_version,
                     lst::TableMetadataPtr new_metadata) override;
  Status CommitTableWithDelta(const std::string& name, int64_t base_version,
                              lst::TableMetadataPtr new_metadata,
                              const lst::CommitDelta& delta) override;
  fault::FaultInjector* fault_injector() const override { return fault_; }
  obs::TraceRecorder* trace_recorder() const override { return trace_; }

 private:
  /// Writes (and prunes) the storage-side metadata footprint for a
  /// freshly committed version when persistence is enabled.
  void MaybePersistMetadata(const lst::TableMetadata& metadata);

  /// Copies the listener list under the lock and invokes each listener
  /// WITHOUT holding it — a listener doing non-trivial work (index
  /// rebuild) must not serialize unrelated catalog reads, and one that
  /// reads the catalog must not deadlock.
  void NotifyCommit(const CommitEvent& event) const;

  const Clock* clock_;
  storage::NameNode* dfs_;
  CatalogOptions options_;
  fault::FaultInjector* fault_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;

  /// Guards all catalog maps and counters. Concurrent transaction
  /// commits, expiry and observe-phase reads all funnel through here;
  /// reads take shared ownership, mutations exclusive.
  mutable std::shared_mutex mu_;
  std::map<std::string, std::vector<std::string>> databases_;  // db -> tables
  std::map<std::string, lst::TableMetadataPtr> tables_;  // "db.table" -> meta
  std::map<std::string, TableAccessStats> access_;
  std::vector<std::pair<int64_t, CommitListener>> commit_listeners_;
  int64_t next_listener_id_ = 1;
  CatalogStats stats_;
};

/// \brief Splits "db.table" into its parts; InvalidArgument when malformed.
Result<std::pair<std::string, std::string>> SplitQualifiedName(
    const std::string& qualified_name);

}  // namespace autocomp::catalog
