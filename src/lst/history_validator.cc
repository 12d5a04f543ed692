#include "lst/history_validator.h"

#include <map>
#include <set>
#include <string>
#include <string_view>

namespace autocomp::lst {

namespace {

void Add(std::vector<HistoryViolation>* out, int64_t snapshot_id,
         std::string message) {
  out->push_back(HistoryViolation{snapshot_id, std::move(message)});
}

}  // namespace

std::vector<HistoryViolation> ValidateHistory(const TableMetadata& metadata) {
  std::vector<HistoryViolation> violations;
  const auto& snapshots = metadata.snapshots();

  // --- metadata-level checks.
  if (metadata.current_snapshot_id() != 0 &&
      metadata.current_snapshot() == nullptr) {
    Add(&violations, 0, "current snapshot id not present in history");
  }
  if (!snapshots.empty() &&
      metadata.current_snapshot_id() != snapshots.back().snapshot_id) {
    Add(&violations, 0, "current snapshot is not the head of the chain");
  }

  // --- chain checks.
  std::set<int64_t> ids;
  int64_t prev_id = 0;
  int64_t prev_sequence = 0;
  SimTime prev_timestamp = -1;
  int64_t max_manifest_id = 0;
  for (size_t i = 0; i < snapshots.size(); ++i) {
    const Snapshot& s = snapshots[i];
    if (!ids.insert(s.snapshot_id).second) {
      Add(&violations, s.snapshot_id, "duplicate snapshot id");
    }
    if (i > 0 && s.parent_snapshot_id != prev_id) {
      Add(&violations, s.snapshot_id,
          "parent id " + std::to_string(s.parent_snapshot_id) +
              " is not the predecessor " + std::to_string(prev_id));
    }
    if (s.sequence_number <= prev_sequence) {
      Add(&violations, s.snapshot_id, "sequence number not increasing");
    }
    if (s.timestamp < prev_timestamp) {
      Add(&violations, s.snapshot_id, "timestamp went backwards");
    }
    if (s.snapshot_id >= metadata.next_snapshot_id()) {
      Add(&violations, s.snapshot_id, "snapshot id beyond next_snapshot_id");
    }
    if (s.sequence_number >= metadata.next_sequence_number()) {
      Add(&violations, s.snapshot_id,
          "sequence number beyond next_sequence_number");
    }
    for (const ManifestPtr& m : s.manifests) {
      max_manifest_id = std::max(max_manifest_id, m->manifest_id());
    }
    prev_id = s.snapshot_id;
    prev_sequence = s.sequence_number;
    prev_timestamp = s.timestamp;
  }
  if (max_manifest_id >= metadata.next_manifest_id()) {
    Add(&violations, 0, "manifest id beyond next_manifest_id");
  }

  // --- replay: rebuild every snapshot's live set from the previous one.
  //
  // Note: the first retained snapshot after an expiry carries files added
  // by expired (now absent) snapshots, so the replay seeds from the first
  // snapshot's actual live set and checks the *transitions*.
  // Keys and entries view `metadata`'s manifests, which outlive the
  // replay.
  std::map<PathRef, DataFileRef, PathLess> live;
  for (size_t i = 0; i < snapshots.size(); ++i) {
    const Snapshot& s = snapshots[i];
    // Collect this snapshot's actual live set.
    std::map<PathRef, DataFileRef, PathLess> actual;
    for (const ManifestPtr& m : s.manifests) {
      for (const DataFileRef& f : *m) {
        if (!actual.emplace(f.path, f).second) {
          Add(&violations, s.snapshot_id,
              "path appears twice in live set: " + f.path.str());
        }
      }
    }
    if (i == 0) {
      live = actual;
      continue;
    }
    // Apply the delta to the previous live set.
    int64_t removed_count = 0;
    for (const std::string_view path : s.removed_paths) {
      const auto it = live.find(path);
      if (it == live.end()) {
        Add(&violations, s.snapshot_id,
            "removed path was not live in parent: " + std::string(path));
      } else {
        live.erase(it);
        ++removed_count;
      }
    }
    int64_t added_count = 0;
    for (const auto& [path, file] : actual) {
      if (file.added_snapshot_id == s.snapshot_id) {
        if (!live.emplace(path, file).second) {
          Add(&violations, s.snapshot_id,
              "added path was already live: " + path.str());
        }
        ++added_count;
      }
    }
    // The replayed set must equal the actual set.
    if (live.size() != actual.size()) {
      Add(&violations, s.snapshot_id,
          "replayed live set size " + std::to_string(live.size()) +
              " != actual " + std::to_string(actual.size()));
    } else {
      for (const auto& [path, _] : actual) {
        if (live.count(path) == 0) {
          Add(&violations, s.snapshot_id,
              "replayed live set missing path: " + path.str());
          break;
        }
      }
    }
    // Summary counters.
    if (s.added_files != added_count) {
      Add(&violations, s.snapshot_id,
          "summary added_files=" + std::to_string(s.added_files) +
              " but replay added " + std::to_string(added_count));
    }
    if (s.deleted_files != removed_count) {
      Add(&violations, s.snapshot_id,
          "summary deleted_files=" + std::to_string(s.deleted_files) +
              " but replay removed " + std::to_string(removed_count));
    }
    live = actual;  // re-sync so one violation does not cascade
  }
  return violations;
}

Status CheckHistory(const TableMetadata& metadata) {
  const auto violations = ValidateHistory(metadata);
  if (violations.empty()) return Status::OK();
  std::string message = "history of " + metadata.name() + " inconsistent: ";
  for (size_t i = 0; i < violations.size() && i < 3; ++i) {
    if (i > 0) message += "; ";
    message += "[snap " + std::to_string(violations[i].snapshot_id) + "] " +
               violations[i].message;
  }
  if (violations.size() > 3) {
    message += "; (+" + std::to_string(violations.size() - 3) + " more)";
  }
  return Status::Internal(message);
}

}  // namespace autocomp::lst
