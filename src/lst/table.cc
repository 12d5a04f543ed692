#include "lst/table.h"

#include <algorithm>
#include <cassert>

#include "fault/fault_injector.h"

namespace autocomp::lst {

namespace {

/// The distinct manifests of `snapshots`, sorted by address.
std::vector<const Manifest*> DistinctManifests(
    const std::vector<const Snapshot*>& snapshots) {
  std::vector<const Manifest*> manifests;
  for (const Snapshot* s : snapshots) {
    for (const ManifestPtr& m : s->manifests) manifests.push_back(m.get());
  }
  std::sort(manifests.begin(), manifests.end());
  manifests.erase(std::unique(manifests.begin(), manifests.end()),
                  manifests.end());
  return manifests;
}

/// Paths of `expired` snapshots that no `retained` snapshot lists,
/// sorted by full path, as views of their manifests. A path can only be
/// orphaned by a manifest no retained snapshot holds, so candidates come
/// from those manifests alone; each retained entry then drops its
/// candidate by binary search, and the retained paths are never sorted.
std::vector<PathRef> OrphanedPaths(
    const std::vector<const Snapshot*>& retained,
    const std::vector<const Snapshot*>& expired) {
  const std::vector<const Manifest*> kept = DistinctManifests(retained);
  std::vector<PathRef> candidates;
  for (const Manifest* m : DistinctManifests(expired)) {
    if (std::binary_search(kept.begin(), kept.end(), m)) continue;
    for (size_t i = 0; i < static_cast<size_t>(m->file_count()); ++i) {
      candidates.push_back(m->path(i));
    }
  }
  if (candidates.empty()) return candidates;
  std::sort(candidates.begin(), candidates.end(), PathLess());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<bool> referenced(candidates.size(), false);
  for (const Manifest* m : kept) {
    for (size_t i = 0; i < static_cast<size_t>(m->file_count()); ++i) {
      const PathRef path = m->path(i);
      const auto it = std::lower_bound(candidates.begin(), candidates.end(),
                                       path, PathLess());
      if (it != candidates.end() && *it == path) {
        referenced[static_cast<size_t>(it - candidates.begin())] = true;
      }
    }
  }
  std::vector<PathRef> orphaned;
  for (size_t k = 0; k < candidates.size(); ++k) {
    if (!referenced[k]) orphaned.push_back(candidates[k]);
  }
  return orphaned;
}

}  // namespace

Table::Table(MetadataStore* store, std::string name, const Clock* clock)
    : store_(store), name_(std::move(name)), clock_(clock) {
  assert(store_ != nullptr && clock_ != nullptr);
}

Result<TableMetadataPtr> Table::Metadata() const {
  return store_->LoadTable(name_);
}

Result<Transaction> Table::NewTransaction(ValidationMode mode) const {
  AUTOCOMP_ASSIGN_OR_RETURN(TableMetadataPtr base, Metadata());
  return Transaction(store_, name_, std::move(base), clock_, mode,
                     store_->fault_injector(), store_->trace_recorder());
}

Result<ScanPlan> Table::PlanScan(
    const std::optional<std::string>& partition) const {
  ScanPlan plan;
  AUTOCOMP_ASSIGN_OR_RETURN(plan.metadata, Metadata());
  const Snapshot* snap = plan.metadata->current_snapshot();
  if (snap == nullptr) return plan;
  plan.snapshot_id = snap->snapshot_id;
  if (!partition) {
    plan.files.reserve(static_cast<size_t>(snap->live_file_count()));
  }
  for (const ManifestPtr& m : snap->manifests) {
    const bool scanned =
        m->ForEachFile(partition, [&plan](const DataFileRef& f) {
          plan.total_bytes += f.file_size_bytes;
          plan.total_records += f.record_count;
          plan.files.push_back(f);
        });
    if (scanned) ++plan.manifests_scanned;  // else pruned
  }
  return plan;
}

Result<ExpireResult> ExpireSnapshots(MetadataStore* store,
                                     const std::string& table_name,
                                     const Clock* clock, SimTime older_than,
                                     int keep_last) {
  assert(store != nullptr && clock != nullptr);
  constexpr int kMaxCasRetries = 5;
  for (int attempt = 0;; ++attempt) {
    AUTOCOMP_ASSIGN_OR_RETURN(TableMetadataPtr meta,
                              store->LoadTable(table_name));
    const auto& snapshots = meta->snapshots();
    if (snapshots.empty()) {
      return ExpireResult{meta, {}, 0};
    }

    const size_t keep_tail =
        std::min(snapshots.size(), static_cast<size_t>(std::max(1, keep_last)));
    std::vector<const Snapshot*> retained;
    std::vector<const Snapshot*> expired;
    for (size_t i = 0; i < snapshots.size(); ++i) {
      const Snapshot& s = snapshots[i];
      const bool in_tail = i + keep_tail >= snapshots.size();
      const bool is_current = s.snapshot_id == meta->current_snapshot_id();
      if (in_tail || is_current || s.timestamp >= older_than) {
        retained.push_back(&s);
      } else {
        expired.push_back(&s);
      }
    }
    if (expired.empty()) {
      return ExpireResult{meta, {}, 0};
    }

    // Live paths across all retained snapshots stay on disk; the other
    // paths of expired snapshots are orphans (views of `meta`'s
    // manifests, sorted).
    const std::vector<PathRef> orphaned = OrphanedPaths(retained, expired);

    std::vector<Snapshot> kept;
    kept.reserve(retained.size());
    for (const Snapshot* s : retained) kept.push_back(*s);
    TableMetadata::Builder builder(*meta);
    builder.SetSnapshots(std::move(kept));
    builder.SetLastUpdatedAt(clock->Now());
    AUTOCOMP_ASSIGN_OR_RETURN(TableMetadataPtr next, builder.Build());
    // Injected commit faults on the maintenance path: a CAS race means a
    // concurrent writer won the swap before the truncation landed —
    // recompute the expiry set against the new version, like an organic
    // conflict below. Anything else configured at the site is terminal.
    if (fault::FaultInjector* injector = store->fault_injector();
        injector != nullptr) {
      const fault::FaultKind kind =
          injector->Arm(fault::kSiteRetentionExpire, table_name);
      if (kind == fault::FaultKind::kCasRaceConflict) {
        if (attempt >= kMaxCasRetries) {
          return fault::FaultInjector::ToStatus(
              kind, fault::kSiteRetentionExpire, table_name);
        }
        continue;
      }
      if (kind != fault::FaultKind::kNone) {
        return fault::FaultInjector::ToStatus(
            kind, fault::kSiteRetentionExpire, table_name);
      }
    }
    const Status cas = store->CommitTable(table_name, meta->version(), next);
    if (cas.ok()) {
      ExpireResult result;
      result.metadata = next;
      result.orphaned_paths.reserve(orphaned.size());
      for (const PathRef& path : orphaned) {
        result.orphaned_paths.push_back(path.str());
      }
      result.expired_snapshots = static_cast<int64_t>(expired.size());
      return result;
    }
    if (!cas.IsCommitConflict() || attempt >= kMaxCasRetries) return cas;
    // CAS race with a concurrent commit: recompute on the new version.
  }
}

}  // namespace autocomp::lst
