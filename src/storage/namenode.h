/// \file namenode.h
/// \brief Simulated HDFS NameNode: namespace, quotas, RPC accounting.
///
/// The paper's motivating pain points are all NameNode-side: object-count
/// growth, namespace-quota breaches, RPC pressure from small-file reads,
/// and read timeouts that trigger thundering-herd retries (§1, §2, §7).
/// This component models exactly those signals at metadata level. File
/// *contents* are never stored; files carry sizes and record counts only.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/blob.h"
#include "common/clock.h"
#include "common/interner.h"
#include "common/random.h"
#include "common/status.h"
#include "common/units.h"

namespace autocomp::fault {
class FaultInjector;
}  // namespace autocomp::fault

namespace autocomp::obs {
class TraceRecorder;
}  // namespace autocomp::obs

namespace autocomp::storage {

/// \brief Metadata for one immutable file in the namespace.
struct FileInfo {
  std::string path;
  int64_t size_bytes = 0;
  int64_t record_count = 0;
  SimTime created_at = 0;
};

/// \brief Namespace-quota state for a directory subtree (HDFS-style:
/// quota counts files + directories under the root).
struct QuotaStatus {
  int64_t used_objects = 0;
  int64_t total_objects = 0;  // 0 means no quota set
  double utilization() const {
    return total_objects > 0
               ? static_cast<double>(used_objects) / total_objects
               : 0.0;
  }
};

/// \brief Aggregate NameNode counters (Figure 11b plots open() calls).
struct NameNodeStats {
  int64_t total_objects = 0;  // files + directories
  int64_t file_count = 0;
  int64_t open_calls = 0;
  int64_t create_calls = 0;
  int64_t delete_calls = 0;
  int64_t list_calls = 0;
  int64_t timeouts = 0;
};

/// \brief Tuning knobs for the RPC-pressure model.
struct NameNodeOptions {
  /// RPCs the NameNode can absorb per simulated hour before reads start
  /// timing out.
  int64_t rpc_capacity_per_hour = 50'000'000;
  /// Read-only observer NameNodes absorbing read RPC traffic (§1:
  /// "elevated RPC traffic generated by small files ... requiring
  /// additional observer NameNodes"). Each observer adds one unit of
  /// read capacity on top of the active NameNode.
  int observer_namenodes = 0;
  /// Probability of a read timing out scales linearly from 0 at capacity
  /// to `max_timeout_probability` at `overload_factor` * capacity.
  double overload_factor = 2.0;
  double max_timeout_probability = 0.5;
  /// Seed for the deterministic timeout draw.
  uint64_t seed = 7;
};

class EpochLoadView;

/// \brief The deployment's NameNode: a flat path namespace with implicit
/// directories.
///
/// Paths are '/'-separated; every distinct directory on a file's path is
/// an object. Quotas may be set on any directory and are enforced on
/// create. All RPCs are counted per simulated hour to drive the timeout
/// model. A deployment has exactly one: the paper's pain points are
/// per-NameNode, and no experiment varies HDFS federation.
class NameNode {
 public:
  NameNode(const Clock* clock, NameNodeOptions options = {});

  /// Creates an immutable file. Fails with AlreadyExists on duplicates and
  /// ResourceExhausted when a covering namespace quota would be exceeded.
  Status CreateFile(const std::string& path, int64_t size_bytes,
                    int64_t record_count);

  /// Removes a file; its empty parent directories are retained (HDFS
  /// keeps directories until explicitly removed; the simulator follows).
  Status DeleteFile(std::string_view path);

  /// Read-opens a file: counts an open() RPC and may time out under load.
  Result<FileInfo> Open(std::string_view path);

  /// Metadata lookup without the timeout model (planner-side access).
  Result<FileInfo> Stat(std::string_view path) const;

  bool Exists(std::string_view path) const;

  /// Visits every file path in the namespace, in path order, without RPC
  /// accounting (the invariant checker's audit path must not perturb the
  /// load model).
  void ForEachFile(const std::function<void(const std::string&)>& fn) const;

  /// All files whose path starts with `dir_prefix` + '/'. Counts one list
  /// RPC per 1000 entries returned (directory listing is paged in HDFS).
  std::vector<FileInfo> ListFiles(const std::string& dir_prefix);

  /// Sets (or clears, with 0) the namespace object quota for a subtree.
  void SetNamespaceQuota(const std::string& dir, int64_t max_objects);

  /// Quota usage for a subtree; `used_objects` counts files+dirs below it.
  QuotaStatus GetQuota(const std::string& dir) const;

  /// Namespace and RPC counters since construction (Figure 11b plots
  /// deltas of `open_calls`).
  const NameNodeStats& AggregateStats() const { return stats_; }

  /// Total RPCs issued in the current (possibly partial) hour.
  int64_t RpcsThisHour() const;

  /// RPCs issued during the hour starting at `hour_start` (epoch-barrier
  /// tallies for the fleet-wide load model).
  int64_t RpcsInHour(SimTime hour_start) const;

  /// Current timeout probability given this hour's RPC load. Exposed for
  /// tests and for the engine's retry cost model.
  double CurrentTimeoutProbability() const;

  /// Switches the timeout model to an epoch-barriered fleet load view
  /// (shard-parallel replay). With a view installed, the probability
  /// comes from the view (constant within an hour epoch) and the timeout
  /// draw becomes a counter-based stream keyed by (seed, path, open
  /// index), so draws are independent of cross-table event interleaving.
  /// nullptr restores the local accumulate-as-you-go model.
  void SetEpochLoadView(const EpochLoadView* view) { epoch_load_ = view; }

  /// Installs (or clears, with nullptr) the fault injector. With one
  /// installed, Open() arms fault::kSiteStorageOpen (injected read
  /// timeouts, counted in AggregateStats().timeouts like organic ones) and
  /// CreateFile() arms fault::kSiteStorageCreate (injected quota
  /// breaches).
  void SetFaultInjector(fault::FaultInjector* injector) { fault_ = injector; }

  /// Installs (or clears, with nullptr) the trace recorder. At
  /// TraceLevel::kFull, Open() records an instant for every timeout it
  /// returns — injected and organic draws alike — and CreateFile()
  /// records quota rejections, so a trace shows exactly which RPC draws
  /// went against the caller (the paper's thundering-herd trigger).
  void SetTraceRecorder(obs::TraceRecorder* trace) { trace_ = trace; }

  /// Recounts the namespace from scratch and cross-checks the running
  /// counters: file/object totals, per-directory contained-file tallies,
  /// and that every parent directory of every file is tracked. OK when
  /// the accounting is consistent.
  Status AuditAccounting() const;

  /// \name Lane checkpoint (DESIGN.md §10)
  /// Serializes the namespace (files, directory tree + quotas), the RPC
  /// tallies and the timeout RNG stream. RestoreState expects a freshly
  /// constructed NameNode (empty namespace) with identical options; the
  /// epoch-load view, fault injector and trace recorder are rewired by
  /// the caller, not checkpointed.
  /// @{
  void SaveState(common::BlobWriter* w) const;
  Status RestoreState(common::BlobReader* r);
  /// @}

 private:
  /// Per-directory bookkeeping, indexed by interned dir id. Tallies are
  /// maintained incrementally on create/delete, so quota checks read two
  /// integers instead of scanning the namespace by prefix (the seed's
  /// GetQuota walked files_ + dirs_ under the prefix on every create).
  struct DirEntry {
    common::StringInterner::Id parent = common::StringInterner::kInvalidId;
    /// Interned does not imply existing: quota roots are interned when the
    /// quota is set, but a directory only becomes a namespace *object*
    /// (counted in total_objects) once a file is created beneath it.
    bool exists = false;
    int64_t file_count = 0;  // live files anywhere under this subtree
    int64_t dir_count = 0;   // existing dirs strictly under this subtree
    int64_t quota = 0;       // max objects for the subtree, 0 = none
  };

  /// What the namespace keeps per file; the path lives only in the
  /// files_ key, and FileInfo is built where a call returns one.
  struct FileRecord {
    int64_t size_bytes = 0;
    int64_t record_count = 0;
    SimTime created_at = 0;
  };
  using FileMap = std::map<std::string, FileRecord, std::less<>>;
  static FileInfo ToInfo(const FileMap::value_type& file);

  void CountRpc(int64_t n = 1);
  /// Interns `dir` and every ancestor (no accounting side effects) and
  /// returns its id. Parent links are populated on first intern.
  common::StringInterner::Id InternDir(std::string_view dir);
  /// Ids of `path`'s parent directories, deepest first (via parent links
  /// after a single deepest-prefix intern — no per-level substrings).
  void ParentChain(std::string_view path,
                   std::vector<common::StringInterner::Id>* chain);
  static std::vector<std::string> ParentDirs(const std::string& path);

  const Clock* clock_;
  NameNodeOptions options_;
  Rng rng_;
  const EpochLoadView* epoch_load_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  FileMap files_;
  common::StringInterner dir_ids_;
  std::vector<DirEntry> dir_meta_;   // indexed by interned dir id
  int64_t existing_dir_count_ = 0;   // dirs with exists == true
  int64_t active_quota_count_ = 0;   // DirEntry quotas > 0
  NameNodeStats stats_;
  std::map<SimTime, int64_t> rpcs_by_hour_;
  /// Hot-path cache for the per-hour tally: the map node for the current
  /// hour is resolved once per hour instead of once per RPC (std::map
  /// nodes are stable, so the pointer survives later inserts).
  SimTime rpc_hour_ = -1;
  int64_t* rpc_slot_ = nullptr;
  /// Scratch buffer for ParentChain (avoids a per-create allocation).
  std::vector<common::StringInterner::Id> chain_scratch_;
};

}  // namespace autocomp::storage
