#include "lst/transaction.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <string_view>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "obs/trace.h"

namespace autocomp::lst {

Transaction::Transaction(MetadataStore* store, std::string table_name,
                         TableMetadataPtr base, const Clock* clock,
                         ValidationMode mode, fault::FaultInjector* injector,
                         obs::TraceRecorder* trace)
    : store_(store),
      table_name_(std::move(table_name)),
      base_(std::move(base)),
      clock_(clock),
      mode_(mode),
      injector_(injector),
      trace_(trace) {
  assert(store_ != nullptr && clock_ != nullptr && base_ != nullptr);
}

Status Transaction::Conflict(ConflictKind kind,
                             const std::string& detail) const {
  last_conflict_.kind = kind;
  last_conflict_.table = table_name_;
  last_conflict_.detail = detail;
  if (trace_ != nullptr && trace_->enabled(obs::TraceLevel::kFull)) {
    trace_->Instant(obs::TraceLevel::kFull, obs::SpanCategory::kCommit,
                    "commit.conflict", clock_->Now(),
                    "table=" + table_name_ +
                        ";kind=" + ConflictKindName(kind) +
                        ";retryable=" + (last_conflict_.retryable() ? "1"
                                                                    : "0"));
  }
  return Status::CommitConflict(detail);
}

Status Transaction::EnsureOperation(SnapshotOperation op) {
  if (has_operation_ && operation_ != op) {
    return Status::FailedPrecondition(
        "transaction already staged a different operation");
  }
  has_operation_ = true;
  operation_ = op;
  return Status::OK();
}

Status Transaction::Append(std::vector<DataFile> files) {
  AUTOCOMP_RETURN_NOT_OK(EnsureOperation(SnapshotOperation::kAppend));
  if (files.empty()) {
    return Status::InvalidArgument("append requires at least one file");
  }
  added_.insert(added_.end(), std::make_move_iterator(files.begin()),
                std::make_move_iterator(files.end()));
  return Status::OK();
}

Status Transaction::Overwrite(std::vector<std::string> replaced_paths,
                              std::vector<DataFile> added) {
  AUTOCOMP_RETURN_NOT_OK(EnsureOperation(SnapshotOperation::kOverwrite));
  replaced_paths_.insert(replaced_paths_.end(),
                         std::make_move_iterator(replaced_paths.begin()),
                         std::make_move_iterator(replaced_paths.end()));
  added_.insert(added_.end(), std::make_move_iterator(added.begin()),
                std::make_move_iterator(added.end()));
  return Status::OK();
}

Status Transaction::RewriteFiles(std::vector<std::string> replaced_paths,
                                 std::vector<DataFile> added) {
  AUTOCOMP_RETURN_NOT_OK(EnsureOperation(SnapshotOperation::kReplace));
  if (replaced_paths.empty()) {
    return Status::InvalidArgument("rewrite requires input files");
  }
  replaced_paths_.insert(replaced_paths_.end(),
                         std::make_move_iterator(replaced_paths.begin()),
                         std::make_move_iterator(replaced_paths.end()));
  added_.insert(added_.end(), std::make_move_iterator(added.begin()),
                std::make_move_iterator(added.end()));
  return Status::OK();
}

Status Transaction::DeleteFiles(std::vector<std::string> paths) {
  AUTOCOMP_RETURN_NOT_OK(EnsureOperation(SnapshotOperation::kDelete));
  if (paths.empty()) {
    return Status::InvalidArgument("delete requires at least one path");
  }
  replaced_paths_.insert(replaced_paths_.end(),
                         std::make_move_iterator(paths.begin()),
                         std::make_move_iterator(paths.end()));
  return Status::OK();
}

Status Transaction::ValidateAgainst(const TableMetadata& current) const {
  const auto intervening = current.SnapshotsAfter(base_->current_snapshot_id());
  if (intervening.empty()) return Status::OK();

  switch (operation_) {
    case SnapshotOperation::kAppend:
      // Fast-append: never conflicts; it only adds a manifest.
      return Status::OK();
    case SnapshotOperation::kReplace: {
      // Which partitions do my input files live in? Scan the base
      // snapshot's manifests in place — materializing LiveFiles() here
      // copied every live DataFile (paths, partitions) per validation,
      // which dominates rebase cost on large tables.
      std::set<std::string, std::less<>> my_partitions;
      const std::set<std::string, PathLess> my_inputs(
          replaced_paths_.begin(), replaced_paths_.end());
      base_->ForEachLiveFile([&](const DataFileRef& f) {
        if (my_inputs.count(f.path) > 0) my_partitions.emplace(f.partition);
      });
      for (const Snapshot* s : intervening) {
        // Fast-appends never invalidate a rewrite: they only add files,
        // and the rebase keeps them. (Iceberg rewrites succeed under
        // concurrent appends.)
        if (s->operation == SnapshotOperation::kAppend) continue;
        // Any operation that removed one of my inputs kills the rewrite
        // — its outputs would resurrect deleted/rewritten data.
        for (const std::string& p : my_inputs) {
          if (s->removed_paths.Contains(p)) {
            return Conflict(
                ConflictKind::kInputRemoved,
                "rewrite input removed by concurrent commit: " + p);
          }
        }
        if (s->operation == SnapshotOperation::kReplace) {
          if (mode_ == ValidationMode::kStrictTableLevel) {
            // Iceberg v1.2.0 behaviour observed in the paper (§4.4):
            // concurrent rewrites of the SAME TABLE conflict even when
            // they target disjoint partitions.
            return Conflict(ConflictKind::kStrictTableLevel,
                            "concurrent rewrite on table " + table_name_ +
                                " (strict table-level validation)");
          }
          // Partition-aware conflict filtering (§8): only overlapping
          // partitions conflict.
          for (const std::string& part : s->touched_partitions) {
            if (my_partitions.count(part) > 0) {
              return Conflict(ConflictKind::kPartitionOverlap,
                              "concurrent rewrite touched partition " + part);
            }
          }
        }
      }
      return Status::OK();
    }
    case SnapshotOperation::kOverwrite:
    case SnapshotOperation::kDelete: {
      // An overwrite/delete read specific files; it conflicts when any of
      // them is no longer live (e.g. compaction rewrote them) — this is
      // the client-side versioning conflict users hit when compaction
      // races their write queries (Table 1).
      for (const std::string& path : replaced_paths_) {
        if (!current.IsLive(path)) {
          return Conflict(
              ConflictKind::kStaleOverwrite,
              "overwritten file no longer live (stale metadata): " + path);
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Result<TableMetadataPtr> Transaction::Apply(const TableMetadata& current,
                                            CommitDelta* delta) const {
  TableMetadata::Builder builder(current);
  Snapshot snap;
  snap.snapshot_id = builder.AllocateSnapshotId();
  snap.parent_snapshot_id = current.current_snapshot_id();
  snap.sequence_number = builder.AllocateSequenceNumber();
  snap.timestamp = clock_->Now();
  snap.operation = operation_;

  delta->known = true;
  delta->snapshot_id = snap.snapshot_id;
  delta->operation = operation_;
  delta->added.clear();
  delta->removed.clear();

  const Snapshot* base_snap = current.current_snapshot();
  ManifestList manifests =
      base_snap == nullptr ? ManifestList{} : base_snap->manifests;

  SortedPathList removed;

  if (!replaced_paths_.empty()) {
    // The staged paths sorted and deduplicated; found[k] marks
    // to_remove[k] as seen live. Manifests are filtered straight from
    // their columns: untouched ones are shared, touched ones are
    // rewritten at the exact size of their survivors.
    std::vector<std::string_view> to_remove(replaced_paths_.begin(),
                                            replaced_paths_.end());
    std::sort(to_remove.begin(), to_remove.end());
    to_remove.erase(std::unique(to_remove.begin(), to_remove.end()),
                    to_remove.end());
    std::vector<bool> found(to_remove.size(), false);
    std::vector<size_t> hits;  // removed entries of one manifest, in order
    ManifestList filtered;
    filtered.reserve(manifests.size());
    for (const ManifestPtr& m : manifests) {
      hits.clear();
      size_t hit_name_bytes = 0;
      const auto count = static_cast<size_t>(m->file_count());
      for (size_t i = 0; i < count; ++i) {
        const PathRef path = m->path(i);
        const auto it = std::lower_bound(to_remove.begin(), to_remove.end(),
                                         path, PathLess());
        if (it == to_remove.end() || !(path == *it)) continue;
        found[static_cast<size_t>(it - to_remove.begin())] = true;
        hits.push_back(i);
        hit_name_bytes += path.name.size();
      }
      if (hits.empty()) {
        filtered.push_back(m);
        continue;
      }
      for (const size_t i : hits) {
        const DataFileRef f = m->file(i);
        snap.deleted_files += 1;
        snap.deleted_bytes += f.file_size_bytes;
        snap.touched_partitions.emplace(f.partition);
        delta->removed.push_back(f.ToDataFile());
      }
      if (hits.size() == count) continue;
      ManifestWriter kept = builder.NewManifest(
          count - hits.size(), m->name_bytes() - hit_name_bytes);
      for (size_t i = 0, h = 0; i < count; ++i) {
        if (h < hits.size() && hits[h] == i) {
          ++h;
        } else {
          kept.Add(*m, i);
        }
      }
      filtered.push_back(kept.Finish());
    }
    manifests = std::move(filtered);
    // Replaced paths that were not live: appends racing deletes could
    // cause this; validation should have caught genuine conflicts.
    if (static_cast<size_t>(std::count(found.begin(), found.end(), true)) !=
        replaced_paths_.size()) {
      return Conflict(ConflictKind::kReplacedNotLive,
                      "some replaced files are not live in " + table_name_);
    }
    removed = SortedPathList::FromPaths(std::move(to_remove));
  }

  if (!added_.empty()) {
    // Stamped views go straight into the new manifest's columns; the
    // delta keeps the one owning copy.
    size_t name_bytes = 0;
    for (const DataFile& f : added_) {
      name_bytes += PathRef::Split(f.path).name.size();
    }
    ManifestWriter appended = builder.NewManifest(added_.size(), name_bytes);
    delta->added.reserve(added_.size());
    for (const DataFile& f : added_) {
      DataFileRef stamped = f.view();
      stamped.added_snapshot_id = snap.snapshot_id;
      stamped.sequence_number = snap.sequence_number;
      snap.added_files += 1;
      snap.added_bytes += f.file_size_bytes;
      snap.added_records += f.record_count;
      snap.touched_partitions.insert(f.partition);
      appended.Add(stamped);
      delta->added.push_back(stamped.ToDataFile());
    }
    manifests.push_back(appended.Finish());
  }

  const int64_t max_manifests =
      current.properties().GetInt(kPropMaxManifests, 100);
  manifests = MaybeMergeManifests(std::move(manifests), max_manifests,
                                  &builder);

  snap.manifests = std::move(manifests);
  snap.removed_paths = std::move(removed);
  builder.AddSnapshot(std::move(snap));
  builder.SetLastUpdatedAt(clock_->Now());
  return builder.Build();
}

Result<CommitResult> Transaction::CommitInternal(bool* cas_race) {
  *cas_race = false;
  if (!has_operation_) {
    return Status::FailedPrecondition("nothing staged to commit");
  }
  AUTOCOMP_ASSIGN_OR_RETURN(TableMetadataPtr current,
                            store_->LoadTable(table_name_));
  if (current->version() != base_->version()) {
    // Someone committed since we captured the base: validate the rebase.
    // A rejection here is terminal (the operation is genuinely lost).
    AUTOCOMP_RETURN_NOT_OK(ValidateAgainst(*current));
  }
  // Injected commit faults: a CAS race (a concurrent writer "won" the
  // swap — retryable, nothing was installed) or a validation abort
  // (terminal). The disjoint-rewrite kind models the v1.2.0 quirk and
  // only applies to rewrites; for other operations it degrades to no
  // fault.
  if (injector_ != nullptr) {
    const fault::FaultKind kind =
        injector_->Arm(fault::kSiteLstCommit, table_name_);
    const Status injected =
        fault::FaultInjector::ToStatus(kind, fault::kSiteLstCommit,
                                       table_name_);
    switch (kind) {
      case fault::FaultKind::kCasRaceConflict:
        *cas_race = true;
        return Conflict(ConflictKind::kInjectedCasRace, injected.message());
      case fault::FaultKind::kValidationAbort:
        return Conflict(ConflictKind::kInjectedValidation,
                        injected.message());
      case fault::FaultKind::kDisjointRewriteAbort:
        if (operation_ == SnapshotOperation::kReplace) {
          return Conflict(ConflictKind::kInjectedValidation,
                          injected.message());
        }
        break;
      default:
        break;
    }
  }
  CommitDelta delta;
  AUTOCOMP_ASSIGN_OR_RETURN(TableMetadataPtr next, Apply(*current, &delta));
  const Status cas = store_->CommitTableWithDelta(table_name_,
                                                  current->version(), next,
                                                  delta);
  if (!cas.ok()) {
    // A CAS failure means another commit landed between our load and our
    // swap; the caller may rebase and retry.
    *cas_race = cas.IsCommitConflict();
    if (*cas_race) {
      return Conflict(ConflictKind::kCasRace, cas.message());
    }
    return cas;
  }
  CommitResult result;
  result.snapshot_id = next->current_snapshot_id();
  result.retries = 0;
  result.metadata = next;
  last_conflict_ = ConflictInfo{};
  if (trace_ != nullptr && trace_->enabled(obs::TraceLevel::kFull)) {
    trace_->Instant(obs::TraceLevel::kFull, obs::SpanCategory::kCommit,
                    "commit.success", clock_->Now(),
                    "table=" + table_name_ + ";op=" +
                        SnapshotOperationName(operation_) + ";snapshot=" +
                        std::to_string(result.snapshot_id),
                    static_cast<double>(added_.size()));
  }
  return result;
}

Result<CommitResult> Transaction::Commit() {
  bool cas_race = false;
  return CommitInternal(&cas_race);
}

Result<CommitResult> Transaction::CommitWithRetries(int max_retries) {
  int retries = 0;
  while (true) {
    bool cas_race = false;
    Result<CommitResult> attempt = CommitInternal(&cas_race);
    if (attempt.ok()) {
      attempt->retries = retries;
      return attempt;
    }
    if (!cas_race) return attempt.status();  // validation rejection: final
    if (retries >= max_retries) {
      return Conflict(ConflictKind::kRetriesExhausted,
                      "retries exhausted after " + std::to_string(retries) +
                          " attempts");
    }
    ++retries;
    // Retry: CommitInternal reloads the current version and re-validates
    // against the ORIGINAL base, so strict-mode rewrites still conflict
    // after a rebase.
  }
}

}  // namespace autocomp::lst
