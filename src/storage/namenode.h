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
///
/// Files live in a compact table (DESIGN.md §10): one 48-byte slot per
/// file, its basename in shared name pages and its directory as an
/// interned id, found through an open-addressing index on the path hash.
/// No path string is kept per file. Path order is rebuilt only where it
/// is observable: ForEachFile, ListFiles and SaveState.
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
  /// Checks, in order: an injected fault, the timeout draw, existence.
  /// Stat is the metadata accessor.
  Status Open(std::string_view path);

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
  /// tallies and the timeout RNG stream. Files go out in path order and
  /// directories parent-first, so the blob's front coding stores little
  /// more of each path than the bytes that differ from the one before.
  /// RestoreState expects a freshly constructed NameNode (empty
  /// namespace) with identical options, copies every path it keeps out
  /// of the reader's arena before returning, and leaves the epoch-load
  /// view, fault injector and trace recorder to the caller (not
  /// checkpointed).
  /// @{
  void SaveState(common::BlobWriter* w) const;
  Status RestoreState(common::BlobReader* r);
  /// @}

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// Per-directory bookkeeping, indexed by interned dir id. Tallies are
  /// maintained incrementally on create/delete, so quota checks read two
  /// integers instead of scanning the namespace by prefix (the seed's
  /// GetQuota walked files_ + dirs_ under the prefix on every create).
  struct DirEntry {
    /// The interned name (the interner's storage is stable), read on
    /// every lookup without the interner's lock.
    std::string_view name;
    common::StringInterner::Id parent = common::StringInterner::kInvalidId;
    /// Interned does not imply existing: quota roots are interned when the
    /// quota is set, but a directory only becomes a namespace *object*
    /// (counted in total_objects) once a file is created beneath it.
    bool exists = false;
    int64_t file_count = 0;  // live files anywhere under this subtree
    int64_t dir_count = 0;   // existing dirs strictly under this subtree
    int64_t quota = 0;       // max objects for the subtree, 0 = none
    /// Head of the list of files directly in this directory, so a
    /// listing visits only the directories it matches.
    uint32_t first_file = kNoSlot;
  };

  /// One file (48 bytes; slot numbers are 32-bit). Its path is the
  /// directory's interned name, '/', and the basename at [name_offset,
  /// name_offset + name_length) of name page name_page; files directly
  /// under "/" have dir == kInvalidId. The files of one directory form a
  /// doubly linked list. A free slot has dir == kFreeSlot and threads the
  /// free list through next_in_dir. The path hash is not kept: an index
  /// entry's 32-bit tag already rules out nearly every other slot.
  struct FileSlot {
    int64_t size_bytes = 0;
    int64_t record_count = 0;
    SimTime created_at = 0;
    common::StringInterner::Id dir = common::StringInterner::kInvalidId;
    uint32_t name_page = 0;
    uint32_t name_offset = 0;
    uint32_t name_length = 0;
    uint32_t next_in_dir = kNoSlot;
    uint32_t prev_in_dir = kNoSlot;
  };
  static_assert(sizeof(FileSlot) == 48);
  static constexpr common::StringInterner::Id kFreeSlot = -2;
  /// Slots and basenames live in pages. Every page but the last is full
  /// and later pages are allocated at full size, so a large namespace
  /// never copies a doubling buffer (one vector plus one string arena
  /// peaked 3.5 MB higher on control_loop, DESIGN.md §10), and a small
  /// one stays in a small first page that grows by doubling.
  static constexpr uint32_t kSlotPage = 4096;       // slots (192 KiB)
  static constexpr size_t kNamePage = 64 * 1024;    // basename bytes

  FileSlot& Slot(uint32_t i) {
    return slot_pages_[i / kSlotPage][i % kSlotPage];
  }
  const FileSlot& Slot(uint32_t i) const {
    return slot_pages_[i / kSlotPage][i % kSlotPage];
  }
  std::string_view DirName(common::StringInterner::Id dir) const;
  std::string_view Basename(const FileSlot& slot) const;
  /// Head of the file list of `dir` (kInvalidId: "/").
  uint32_t& FirstFile(common::StringInterner::Id dir);
  uint32_t FirstFile(common::StringInterner::Id dir) const;
  /// Adds the slot to (removes it from) its directory's file list.
  void LinkFile(uint32_t slot);
  void UnlinkFile(uint32_t slot);
  /// The slot's full path, rebuilt into `out`.
  void PathOf(const FileSlot& slot, std::string* out) const;
  static FileInfo InfoOf(const FileSlot& slot, std::string path);
  /// Byte order of the rebuilt paths, without building them.
  bool PathLess(const FileSlot& a, const FileSlot& b) const;
  /// All live slots, sorted by full path.
  std::vector<uint32_t> SlotsByPath() const;
  void SortByPath(std::vector<uint32_t>* slots) const;

  /// The slot holding `path` (whose HashString is `hash`), or kNoSlot.
  /// `bucket` receives the index position of a found slot.
  uint32_t FindSlot(std::string_view path, uint64_t hash,
                    size_t* bucket = nullptr) const;
  /// Indexes (and counts live) slot `slot`, whose path hashes to `hash`,
  /// growing the index first at 3/4 load.
  void IndexSlot(uint32_t slot, uint64_t hash);
  /// Removes (and uncounts) an entry by backward-shift deletion: no
  /// tombstones, so probes stay short.
  void UnindexBucket(size_t bucket);
  void ResizeIndex(size_t buckets);
  /// Takes a free slot or appends one.
  uint32_t AllocateSlot();
  /// Appends `basename` to the last name page (or a new one) and points
  /// `slot` at it.
  void StoreName(std::string_view basename, FileSlot* slot);
  /// Once deleted basenames outweigh the live ones plus a pass over the
  /// slots, slides the live ones down in place and frees emptied pages.
  void MaybeCompactNames();

  void CountRpc(int64_t n = 1);
  /// Interns `dir` and every ancestor (no accounting side effects) and
  /// returns its id. Parent links are populated on first intern.
  common::StringInterner::Id InternDir(std::string_view dir);
  /// Ids of `path`'s parent directories, deepest first (via parent links
  /// after a single deepest-prefix intern — no per-level substrings).
  void ParentChain(std::string_view path,
                   std::vector<common::StringInterner::Id>* chain);
  static std::vector<std::string> ParentDirs(std::string_view path);

  const Clock* clock_;
  NameNodeOptions options_;
  Rng rng_;
  const EpochLoadView* epoch_load_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  std::vector<std::vector<FileSlot>> slot_pages_;
  uint32_t slot_count_ = 0;       // slots handed out, live or free
  uint32_t free_slot_ = kNoSlot;  // head of the free-slot list
  int64_t live_files_ = 0;        // slots in use == index entries
  uint32_t root_first_file_ = kNoSlot;  // files directly under "/"
  /// Basenames back to back; a name never straddles pages, and one
  /// longer than kNamePage gets a page of its own. Bytes of deleted
  /// files stay until MaybeCompactNames reclaims them.
  std::vector<std::vector<char>> name_pages_;
  int64_t live_name_bytes_ = 0;
  int64_t dead_name_bytes_ = 0;
  /// Open-addressing index (linear probing, power-of-two size, empty
  /// until the first create): each entry packs the high half of
  /// CounterRng::Mix(hash), which also picks its home bucket, over a slot
  /// number, so a probe compares slots only on a 32-bit match.
  std::vector<uint64_t> index_;
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
