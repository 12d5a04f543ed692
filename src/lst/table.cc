#include "lst/table.h"

#include <algorithm>
#include <cassert>
#include <string_view>

#include "fault/fault_injector.h"

namespace autocomp::lst {

namespace {

/// Every path in `snapshots`' manifests, sorted and deduplicated, as
/// views into those manifests. Snapshots share most of their manifests,
/// so each distinct manifest is read once.
std::vector<std::string_view> DistinctPaths(
    const std::vector<const Snapshot*>& snapshots) {
  std::vector<const Manifest*> manifests;
  for (const Snapshot* s : snapshots) {
    for (const ManifestPtr& m : s->manifests) manifests.push_back(m.get());
  }
  std::sort(manifests.begin(), manifests.end());
  manifests.erase(std::unique(manifests.begin(), manifests.end()),
                  manifests.end());
  std::vector<std::string_view> paths;
  for (const Manifest* m : manifests) {
    for (size_t i = 0; i < static_cast<size_t>(m->file_count()); ++i) {
      paths.push_back(m->path(i));
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  return paths;
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
    const std::vector<std::string_view> referenced = DistinctPaths(retained);
    std::vector<std::string_view> orphaned;
    for (const std::string_view path : DistinctPaths(expired)) {
      if (!std::binary_search(referenced.begin(), referenced.end(), path)) {
        orphaned.push_back(path);
      }
    }

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
      result.orphaned_paths.assign(orphaned.begin(), orphaned.end());
      result.expired_snapshots = static_cast<int64_t>(expired.size());
      return result;
    }
    if (!cas.IsCommitConflict() || attempt >= kMaxCasRetries) return cas;
    // CAS race with a concurrent commit: recompute on the new version.
  }
}

}  // namespace autocomp::lst
