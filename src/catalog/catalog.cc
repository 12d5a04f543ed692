#include "catalog/catalog.h"

#include <algorithm>
#include <cassert>
#include <mutex>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "lst/metadata_blob.h"
#include "lst/metadata_json.h"

namespace autocomp::catalog {

Result<std::pair<std::string, std::string>> SplitQualifiedName(
    const std::string& qualified_name) {
  const size_t dot = qualified_name.find('.');
  if (dot == std::string::npos || dot == 0 ||
      dot + 1 == qualified_name.size() ||
      qualified_name.find('.', dot + 1) != std::string::npos) {
    return Status::InvalidArgument("expected 'db.table', got: " +
                                   qualified_name);
  }
  return std::make_pair(qualified_name.substr(0, dot),
                        qualified_name.substr(dot + 1));
}

Catalog::Catalog(const Clock* clock, storage::NameNode* dfs,
                 CatalogOptions options)
    : clock_(clock), dfs_(dfs), options_(options) {
  assert(clock_ != nullptr && dfs_ != nullptr);
}

void Catalog::MaybePersistMetadata(const lst::TableMetadata& metadata) {
  if (!options_.persist_metadata) return;
  auto persisted = lst::PersistMetadataFootprint(dfs_, metadata);
  if (!persisted.ok()) {
    // A quota breach on the metadata write mirrors a real failure mode
    // (namespace exhaustion blocks commits' bookkeeping); surface it but
    // keep the already-swapped commit.
    LOG_WARN << "metadata persistence failed for " << metadata.name() << ": "
             << persisted.status();
    return;
  }
  const int64_t expire_below =
      metadata.version() - options_.metadata_versions_retained;
  if (expire_below > 0) {
    auto expired = lst::ExpireMetadataFootprint(dfs_, metadata, expire_below);
    if (!expired.ok()) {
      LOG_WARN << "metadata expiry failed for " << metadata.name() << ": "
               << expired.status();
    }
  }
}

std::string Catalog::DatabaseLocation(const std::string& db) {
  return "/data/" + db;
}

std::string Catalog::TableLocation(const std::string& qualified_name) {
  auto parts = SplitQualifiedName(qualified_name);
  if (!parts.ok()) return "/data/_invalid";
  return DatabaseLocation(parts->first) + "/" + parts->second;
}

Status Catalog::CreateDatabase(const std::string& db,
                               int64_t namespace_quota_objects) {
  if (db.empty() || db.find('.') != std::string::npos ||
      db.find('/') != std::string::npos) {
    return Status::InvalidArgument("invalid database name: " + db);
  }
  std::unique_lock lock(mu_);
  if (databases_.count(db) > 0) {
    return Status::AlreadyExists("database exists: " + db);
  }
  databases_[db] = {};
  if (namespace_quota_objects > 0) {
    dfs_->SetNamespaceQuota(DatabaseLocation(db), namespace_quota_objects);
  }
  return Status::OK();
}

bool Catalog::DatabaseExists(const std::string& db) const {
  std::shared_lock lock(mu_);
  return databases_.count(db) > 0;
}

std::vector<std::string> Catalog::ListDatabases() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(databases_.size());
  for (const auto& [db, _] : databases_) out.push_back(db);
  return out;
}

Result<lst::Table> Catalog::CreateTable(const std::string& db,
                                        const std::string& table,
                                        lst::Schema schema,
                                        lst::PartitionSpec spec,
                                        Config properties) {
  std::unique_lock lock(mu_);
  const auto db_it = databases_.find(db);
  if (db_it == databases_.end()) {
    return Status::NotFound("no such database: " + db);
  }
  if (table.empty() || table.find('.') != std::string::npos ||
      table.find('/') != std::string::npos) {
    return Status::InvalidArgument("invalid table name: " + table);
  }
  const std::string qualified = db + "." + table;
  if (tables_.count(qualified) > 0) {
    return Status::AlreadyExists("table exists: " + qualified);
  }
  lst::TableMetadata::Builder builder(qualified, TableLocation(qualified),
                                      std::move(schema), std::move(spec));
  builder.SetProperties(std::move(properties));
  builder.SetCreatedAt(clock_->Now());
  AUTOCOMP_ASSIGN_OR_RETURN(lst::TableMetadataPtr meta, builder.Build());
  MaybePersistMetadata(*meta);
  tables_.emplace(qualified, std::move(meta));
  db_it->second.push_back(table);
  ++stats_.tables_created;
  return lst::Table(this, qualified, clock_);
}

Result<lst::Table> Catalog::GetTable(const std::string& qualified_name) {
  std::shared_lock lock(mu_);
  if (tables_.count(qualified_name) == 0) {
    return Status::NotFound("no such table: " + qualified_name);
  }
  return lst::Table(this, qualified_name, clock_);
}

Status Catalog::DropTable(const std::string& qualified_name) {
  AUTOCOMP_ASSIGN_OR_RETURN(auto parts, SplitQualifiedName(qualified_name));
  {
    std::unique_lock lock(mu_);
    const auto it = tables_.find(qualified_name);
    if (it == tables_.end()) {
      return Status::NotFound("no such table: " + qualified_name);
    }
    tables_.erase(it);
    auto& list = databases_[parts.first];
    list.erase(std::remove(list.begin(), list.end(), parts.second),
               list.end());
    ++stats_.tables_dropped;
  }
  CommitEvent event;
  event.table = qualified_name;
  event.metadata = nullptr;  // dropped
  NotifyCommit(event);
  return Status::OK();
}

std::vector<std::string> Catalog::ListTables(const std::string& db) const {
  std::shared_lock lock(mu_);
  const auto it = databases_.find(db);
  if (it == databases_.end()) return {};
  std::vector<std::string> out = it->second;
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Catalog::ListAllTables() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [qualified, _] : tables_) out.push_back(qualified);
  return out;
}

storage::QuotaStatus Catalog::DatabaseQuota(const std::string& db) const {
  return dfs_->GetQuota(DatabaseLocation(db));
}

void Catalog::RecordTableRead(const std::string& qualified_name) {
  std::unique_lock lock(mu_);
  TableAccessStats& stats = access_[qualified_name];
  ++stats.read_count;
  stats.last_read_at = clock_->Now();
}

TableAccessStats Catalog::GetAccessStats(
    const std::string& qualified_name) const {
  std::shared_lock lock(mu_);
  const auto it = access_.find(qualified_name);
  return it == access_.end() ? TableAccessStats{} : it->second;
}

int64_t Catalog::AddCommitListener(CommitListener listener) {
  std::unique_lock lock(mu_);
  const int64_t id = next_listener_id_++;
  commit_listeners_.emplace_back(id, std::move(listener));
  return id;
}

void Catalog::RemoveCommitListener(int64_t id) {
  std::unique_lock lock(mu_);
  commit_listeners_.erase(
      std::remove_if(commit_listeners_.begin(), commit_listeners_.end(),
                     [id](const auto& entry) { return entry.first == id; }),
      commit_listeners_.end());
}

void Catalog::NotifyCommit(const CommitEvent& event) const {
  // Snapshot the listener list, then invoke outside the lock: listeners
  // do real work (index maintenance, cache eviction) and must not
  // serialize catalog reads or deadlock on re-entrant lookups. The event
  // carries the committed metadata, so listeners never need the lock.
  std::vector<CommitListener> listeners;
  {
    std::shared_lock lock(mu_);
    listeners.reserve(commit_listeners_.size());
    for (const auto& [id, listener] : commit_listeners_) {
      listeners.push_back(listener);
    }
  }
  for (const CommitListener& listener : listeners) listener(event);
}

Result<lst::TableMetadataPtr> Catalog::LoadTable(
    const std::string& name) const {
  std::shared_lock lock(mu_);
  const auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  return it->second;
}

Status Catalog::CommitTable(const std::string& name, int64_t base_version,
                            lst::TableMetadataPtr new_metadata) {
  // No delta available (snapshot expiry, rollback, direct callers):
  // listeners see delta == nullptr and fall back to a full rebuild.
  return CommitTableWithDelta(name, base_version, std::move(new_metadata),
                              lst::CommitDelta{});
}

Status Catalog::CommitTableWithDelta(const std::string& name,
                                     int64_t base_version,
                                     lst::TableMetadataPtr new_metadata,
                                     const lst::CommitDelta& delta) {
  lst::TableMetadataPtr committed;
  {
    std::unique_lock lock(mu_);
    ++stats_.commit_attempts;
    const auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Status::NotFound("no such table: " + name);
    }
    if (it->second->version() != base_version) {
      ++stats_.commit_conflicts;
      return Status::CommitConflict(
          "version moved: expected " + std::to_string(base_version) + ", is " +
          std::to_string(it->second->version()));
    }
    if (new_metadata == nullptr || new_metadata->version() <= base_version) {
      return Status::InvalidArgument("new metadata must advance the version");
    }
    MaybePersistMetadata(*new_metadata);
    it->second = std::move(new_metadata);
    committed = it->second;
  }
  // Outside the lock: concurrent commits to the SAME table may deliver
  // their events out of order here; listeners order by metadata version.
  CommitEvent event;
  event.table = name;
  event.metadata = std::move(committed);
  event.delta = delta.known ? &delta : nullptr;
  // Event-delivery faults fire AFTER the swap: the commit itself is
  // durable either way, only the notification is lossy/duplicated —
  // listeners (stats cache, incremental index) must tolerate both.
  fault::FaultKind event_fault = fault::FaultKind::kNone;
  if (fault_ != nullptr) {
    event_fault = fault_->Arm(fault::kSiteCatalogCommitEvent, name);
  }
  if (event_fault != fault::FaultKind::kDropEvent) {
    NotifyCommit(event);
    if (event_fault == fault::FaultKind::kDuplicateEvent) NotifyCommit(event);
  }
  return Status::OK();
}

void Catalog::SaveState(common::BlobWriter* w) const {
  std::shared_lock lock(mu_);
  w->WriteU64(databases_.size());
  for (const auto& [db, tables] : databases_) {
    w->WriteString(db);
    // Table lists keep creation order (DropTable removes in place); the
    // checkpoint preserves it verbatim.
    w->WriteU64(tables.size());
    for (const std::string& t : tables) w->WriteString(t);
  }
  w->WriteU64(tables_.size());
  for (const auto& [qualified, meta] : tables_) {
    w->WriteString(qualified);
    lst::TableMetadataToBlob(*meta, w);
  }
  w->WriteU64(access_.size());
  for (const auto& [qualified, stats] : access_) {
    w->WriteString(qualified);
    w->WriteI64(stats.read_count);
    w->WriteI64(stats.last_read_at);
  }
  w->WriteI64(stats_.commit_attempts);
  w->WriteI64(stats_.commit_conflicts);
  w->WriteI64(stats_.tables_created);
  w->WriteI64(stats_.tables_dropped);
}

Status Catalog::RestoreState(common::BlobReader* r) {
  std::unique_lock lock(mu_);
  databases_.clear();
  tables_.clear();
  access_.clear();
  const uint64_t db_count = r->ReadCount();
  for (uint64_t i = 0; i < db_count && r->ok(); ++i) {
    std::string db = r->ReadString();
    std::vector<std::string> tables(r->ReadCount());
    for (std::string& t : tables) t = r->ReadString();
    databases_.emplace(std::move(db), std::move(tables));
  }
  const uint64_t table_count = r->ReadCount();
  for (uint64_t i = 0; i < table_count && r->ok(); ++i) {
    std::string qualified = r->ReadString();
    AUTOCOMP_ASSIGN_OR_RETURN(lst::TableMetadataPtr meta,
                              lst::TableMetadataFromBlob(r));
    tables_.emplace(std::move(qualified), std::move(meta));
  }
  const uint64_t access_count = r->ReadCount();
  for (uint64_t i = 0; i < access_count && r->ok(); ++i) {
    std::string qualified = r->ReadString();
    TableAccessStats stats;
    stats.read_count = r->ReadI64();
    stats.last_read_at = r->ReadI64();
    access_.emplace(std::move(qualified), stats);
  }
  stats_.commit_attempts = r->ReadI64();
  stats_.commit_conflicts = r->ReadI64();
  stats_.tables_created = r->ReadI64();
  stats_.tables_dropped = r->ReadI64();
  if (!r->ok()) return Status::Internal("truncated catalog checkpoint");
  return Status::OK();
}

}  // namespace autocomp::catalog
