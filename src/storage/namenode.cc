#include "storage/namenode.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>

#include "common/counter_rng.h"
#include "fault/fault_injector.h"
#include "obs/trace.h"
#include "storage/epoch_load.h"

namespace autocomp::storage {

NameNode::NameNode(const Clock* clock, NameNodeOptions options)
    : clock_(clock), options_(options), rng_(options.seed) {
  assert(clock_ != nullptr);
}

namespace {

/// Index entries pack the high half of Mix(hash) over the slot number;
/// all ones marks an empty bucket.
constexpr uint64_t kEmptyBucket = std::numeric_limits<uint64_t>::max();
constexpr size_t kMinBuckets = 16;

uint32_t TagOf(uint64_t hash) {
  return static_cast<uint32_t>(CounterRng::Mix(hash) >> 32);
}

/// The home bucket is the tag's top bits, so growing and backward-shift
/// deletion never need the slot.
size_t HomeOf(uint32_t tag, size_t buckets) {
  return static_cast<size_t>(tag) >> (32 - std::countr_zero(buckets));
}

}  // namespace

std::string_view NameNode::DirName(common::StringInterner::Id dir) const {
  return dir == common::StringInterner::kInvalidId
             ? std::string_view()
             : dir_meta_[static_cast<size_t>(dir)].name;
}

std::string_view NameNode::Basename(const FileSlot& slot) const {
  return {name_pages_[slot.name_page].data() + slot.name_offset,
          slot.name_length};
}

uint32_t& NameNode::FirstFile(common::StringInterner::Id dir) {
  return dir == common::StringInterner::kInvalidId
             ? root_first_file_
             : dir_meta_[static_cast<size_t>(dir)].first_file;
}

uint32_t NameNode::FirstFile(common::StringInterner::Id dir) const {
  return dir == common::StringInterner::kInvalidId
             ? root_first_file_
             : dir_meta_[static_cast<size_t>(dir)].first_file;
}

void NameNode::LinkFile(uint32_t slot) {
  FileSlot& file = Slot(slot);
  uint32_t& first = FirstFile(file.dir);
  file.prev_in_dir = kNoSlot;
  file.next_in_dir = first;
  if (first != kNoSlot) Slot(first).prev_in_dir = slot;
  first = slot;
}

void NameNode::UnlinkFile(uint32_t slot) {
  const FileSlot& file = Slot(slot);
  if (file.prev_in_dir == kNoSlot) {
    FirstFile(file.dir) = file.next_in_dir;
  } else {
    Slot(file.prev_in_dir).next_in_dir = file.next_in_dir;
  }
  if (file.next_in_dir != kNoSlot) {
    Slot(file.next_in_dir).prev_in_dir = file.prev_in_dir;
  }
}

void NameNode::PathOf(const FileSlot& slot, std::string* out) const {
  out->assign(DirName(slot.dir));
  out->push_back('/');
  out->append(Basename(slot));
}

FileInfo NameNode::InfoOf(const FileSlot& slot, std::string path) {
  return FileInfo{std::move(path), slot.size_bytes, slot.record_count,
                  slot.created_at};
}

bool NameNode::PathLess(const FileSlot& a, const FileSlot& b) const {
  const std::string_view base_a = Basename(a);
  const std::string_view base_b = Basename(b);
  if (a.dir == b.dir) return base_a < base_b;
  // Distinct directories: compare "dir/base" byte by byte. Most pairs
  // differ inside the shorter directory name; otherwise one name is a
  // prefix of the other and the tails decide ("/a/b-c/y" < "/a/b/x").
  const std::string_view dir_a = DirName(a.dir);
  const std::string_view dir_b = DirName(b.dir);
  const size_t common = std::min(dir_a.size(), dir_b.size());
  const int c = dir_a.substr(0, common).compare(dir_b.substr(0, common));
  if (c != 0) return c < 0;
  const auto at = [](std::string_view dir, std::string_view base,
                     size_t i) -> unsigned char {
    if (i < dir.size()) return static_cast<unsigned char>(dir[i]);
    if (i == dir.size()) return '/';
    return static_cast<unsigned char>(base[i - dir.size() - 1]);
  };
  const size_t size_a = dir_a.size() + 1 + base_a.size();
  const size_t size_b = dir_b.size() + 1 + base_b.size();
  for (size_t i = common;; ++i) {
    if (i == size_b) return false;
    if (i == size_a) return true;
    const unsigned char ca = at(dir_a, base_a, i);
    const unsigned char cb = at(dir_b, base_b, i);
    if (ca != cb) return ca < cb;
  }
}

void NameNode::SortByPath(std::vector<uint32_t>* slots) const {
  std::sort(slots->begin(), slots->end(), [this](uint32_t a, uint32_t b) {
    return PathLess(Slot(a), Slot(b));
  });
}

std::vector<uint32_t> NameNode::SlotsByPath() const {
  std::vector<uint32_t> order;
  order.reserve(static_cast<size_t>(live_files_));
  for (uint32_t i = 0; i < slot_count_; ++i) {
    if (Slot(i).dir != kFreeSlot) order.push_back(i);
  }
  SortByPath(&order);
  return order;
}

uint32_t NameNode::FindSlot(std::string_view path, uint64_t hash,
                            size_t* bucket) const {
  if (index_.empty()) return kNoSlot;
  const uint32_t tag = TagOf(hash);
  const size_t mask = index_.size() - 1;
  for (size_t i = HomeOf(tag, index_.size());; i = (i + 1) & mask) {
    const uint64_t entry = index_[i];
    if (entry == kEmptyBucket) return kNoSlot;
    if (static_cast<uint32_t>(entry >> 32) != tag) continue;
    const FileSlot& slot = Slot(static_cast<uint32_t>(entry));
    const std::string_view dir = DirName(slot.dir);
    if (path.size() == dir.size() + 1 + slot.name_length &&
        path[dir.size()] == '/' && path.starts_with(dir) &&
        path.substr(dir.size() + 1) == Basename(slot)) {
      if (bucket != nullptr) *bucket = i;
      return static_cast<uint32_t>(entry);
    }
  }
}

void NameNode::ResizeIndex(size_t buckets) {
  std::vector<uint64_t> old(buckets, kEmptyBucket);
  old.swap(index_);
  const size_t mask = buckets - 1;
  for (const uint64_t entry : old) {
    if (entry == kEmptyBucket) continue;
    size_t i = HomeOf(static_cast<uint32_t>(entry >> 32), buckets);
    while (index_[i] != kEmptyBucket) i = (i + 1) & mask;
    index_[i] = entry;
  }
}

void NameNode::IndexSlot(uint32_t slot, uint64_t hash) {
  ++live_files_;
  if (index_.empty() ||
      static_cast<size_t>(live_files_) * 4 > index_.size() * 3) {
    ResizeIndex(std::max(kMinBuckets, index_.size() * 2));
  }
  const uint32_t tag = TagOf(hash);
  const size_t mask = index_.size() - 1;
  size_t i = HomeOf(tag, index_.size());
  while (index_[i] != kEmptyBucket) i = (i + 1) & mask;
  index_[i] = (static_cast<uint64_t>(tag) << 32) | slot;
}

void NameNode::UnindexBucket(size_t bucket) {
  --live_files_;
  const size_t mask = index_.size() - 1;
  for (size_t j = (bucket + 1) & mask;; j = (j + 1) & mask) {
    const uint64_t entry = index_[j];
    if (entry == kEmptyBucket) break;
    // The entry at j may fill the hole if the hole lies on its probe
    // path, i.e. cyclically within [home, j).
    const size_t home =
        HomeOf(static_cast<uint32_t>(entry >> 32), index_.size());
    if (((j - home) & mask) >= ((j - bucket) & mask)) {
      index_[bucket] = entry;
      bucket = j;
    }
  }
  index_[bucket] = kEmptyBucket;
}

uint32_t NameNode::AllocateSlot() {
  if (free_slot_ != kNoSlot) {
    const uint32_t slot = free_slot_;
    free_slot_ = Slot(slot).next_in_dir;
    return slot;
  }
  if (slot_pages_.empty() || slot_pages_.back().size() == kSlotPage) {
    slot_pages_.emplace_back();
    if (slot_pages_.size() > 1) slot_pages_.back().reserve(kSlotPage);
  }
  slot_pages_.back().emplace_back();
  return slot_count_++;
}

void NameNode::StoreName(std::string_view basename, FileSlot* slot) {
  if (name_pages_.empty() ||
      (!name_pages_.back().empty() &&
       name_pages_.back().size() + basename.size() > kNamePage)) {
    name_pages_.emplace_back();
    if (name_pages_.size() > 1) {
      name_pages_.back().reserve(std::max(kNamePage, basename.size()));
    }
  }
  std::vector<char>& page = name_pages_.back();
  slot->name_page = static_cast<uint32_t>(name_pages_.size() - 1);
  slot->name_offset = static_cast<uint32_t>(page.size());
  slot->name_length = static_cast<uint32_t>(basename.size());
  page.insert(page.end(), basename.begin(), basename.end());
  live_name_bytes_ += static_cast<int64_t>(basename.size());
}

void NameNode::MaybeCompactNames() {
  if (dead_name_bytes_ <= live_name_bytes_ + slot_count_) return;
  // Visit the live names in storage order and slide each down to the
  // write position: it never passes the read position, so memmove in
  // place is safe and no second arena is ever allocated.
  std::vector<uint32_t> order;
  order.reserve(static_cast<size_t>(live_files_));
  for (uint32_t i = 0; i < slot_count_; ++i) {
    if (Slot(i).dir != kFreeSlot) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    const FileSlot& x = Slot(a);
    const FileSlot& y = Slot(b);
    return x.name_page != y.name_page ? x.name_page < y.name_page
                                      : x.name_offset < y.name_offset;
  });
  uint32_t page = 0;
  size_t used = 0;
  for (const uint32_t i : order) {
    FileSlot& slot = Slot(i);
    if (used > 0 && used + slot.name_length > kNamePage) {
      name_pages_[page].resize(used);
      ++page;
      used = 0;
    }
    // A name that moves to an earlier page may need it to grow; a name
    // staying in its page already fits below its old offset.
    std::vector<char>& to = name_pages_[page];
    if (to.size() < used + slot.name_length) to.resize(used + slot.name_length);
    std::memmove(to.data() + used,
                 name_pages_[slot.name_page].data() + slot.name_offset,
                 slot.name_length);
    slot.name_page = page;
    slot.name_offset = static_cast<uint32_t>(used);
    used += slot.name_length;
  }
  if (order.empty()) {
    name_pages_.clear();
  } else {
    name_pages_.resize(page + 1);
    name_pages_[page].resize(used);
  }
  dead_name_bytes_ = 0;
}

std::vector<std::string> NameNode::ParentDirs(std::string_view path) {
  std::vector<std::string> dirs;
  size_t pos = 0;
  // "/a/b/c.parquet" -> "/a", "/a/b".
  while ((pos = path.find('/', pos + 1)) != std::string_view::npos) {
    dirs.emplace_back(path.substr(0, pos));
  }
  return dirs;
}

common::StringInterner::Id NameNode::InternDir(std::string_view dir) {
  const common::StringInterner::Id known = dir_ids_.Lookup(dir);
  if (known != common::StringInterner::kInvalidId) return known;
  // Intern the ancestry first so the parent link can be recorded. The
  // recursion depth is the path depth (a handful of levels).
  common::StringInterner::Id parent = common::StringInterner::kInvalidId;
  const size_t slash = dir.rfind('/');
  if (slash != std::string_view::npos && slash > 0) {
    parent = InternDir(dir.substr(0, slash));
  }
  const common::StringInterner::Id id = dir_ids_.Intern(dir);
  if (static_cast<size_t>(id) >= dir_meta_.size()) {
    dir_meta_.resize(static_cast<size_t>(id) + 1);
  }
  DirEntry& entry = dir_meta_[static_cast<size_t>(id)];
  entry.name = dir_ids_.NameOf(id);
  entry.parent = parent;
  return id;
}

void NameNode::ParentChain(std::string_view path,
                           std::vector<common::StringInterner::Id>* chain) {
  chain->clear();
  const size_t slash = path.rfind('/');
  if (slash == std::string_view::npos || slash == 0) return;  // "/f" case
  // One string lookup for the deepest parent; ancestors follow the
  // integer parent links (deepest first).
  for (common::StringInterner::Id id = InternDir(path.substr(0, slash));
       id != common::StringInterner::kInvalidId;
       id = dir_meta_[static_cast<size_t>(id)].parent) {
    chain->push_back(id);
  }
}

Status NameNode::CreateFile(const std::string& path, int64_t size_bytes,
                            int64_t record_count) {
  if (path.empty() || path.front() != '/') {
    return Status::InvalidArgument("path must be absolute: " + path);
  }
  if (size_bytes < 0 || record_count < 0) {
    return Status::InvalidArgument("negative size or record count");
  }
  const uint64_t hash = CounterRng::HashString(path);
  if (FindSlot(path, hash) != kNoSlot) {
    return Status::AlreadyExists("file exists: " + path);
  }
  ParentChain(path, &chain_scratch_);
  const auto& chain = chain_scratch_;  // parent dirs, deepest first
  // Quota check: creating the file adds one object (plus any new parent
  // directories) under each covering quota root. Every covering quota
  // root lies on the parent chain, and the maintained subtree tallies
  // replace the seed's per-create prefix scan over the whole namespace.
  // Roots are visited shallowest-first — the lexicographic order the
  // seed's quota-map iteration produced for nested roots — so the
  // rejection (and its trace instant) names the same quota on ties.
  if (active_quota_count_ > 0) {
    for (size_t i = chain.size(); i-- > 0;) {
      const DirEntry& entry = dir_meta_[static_cast<size_t>(chain[i])];
      if (entry.quota <= 0) continue;
      int64_t new_objects = 1;  // the file itself
      for (size_t j = 0; j < i; ++j) {  // chain dirs strictly below root
        if (!dir_meta_[static_cast<size_t>(chain[j])].exists) ++new_objects;
      }
      const int64_t used = entry.file_count + entry.dir_count;
      if (used + new_objects > entry.quota) {
        const std::string& quota_dir = dir_ids_.NameOf(chain[i]);
        if (trace_ != nullptr && trace_->enabled(obs::TraceLevel::kFull)) {
          trace_->Instant(obs::TraceLevel::kFull, obs::SpanCategory::kStorage,
                          "storage.quota_reject", clock_->Now(),
                          "path=" + path + ";quota=" + quota_dir);
        }
        return Status::ResourceExhausted(
            "namespace quota exceeded for " + quota_dir + " (" +
            std::to_string(used) + "+" + std::to_string(new_objects) + " > " +
            std::to_string(entry.quota) + ")");
      }
    }
  }
  // Injected quota breach: the create is rejected even though the quota
  // arithmetic above admitted it (modelling stale quota caches and
  // admin-tightened quotas the paper's §7 pain points describe).
  if (fault_ != nullptr) {
    const fault::FaultKind kind = fault_->Arm(fault::kSiteStorageCreate, path);
    if (kind == fault::FaultKind::kQuotaExceeded) {
      return fault::FaultInjector::ToStatus(kind, fault::kSiteStorageCreate,
                                            path);
    }
  }
  // Materialize new directories (shallowest first so each new dir bumps
  // the dir_count of the ancestors above it) and count the file into
  // every subtree on the chain.
  for (size_t i = chain.size(); i-- > 0;) {
    DirEntry& entry = dir_meta_[static_cast<size_t>(chain[i])];
    if (!entry.exists) {
      entry.exists = true;
      ++existing_dir_count_;
      ++stats_.total_objects;
      for (size_t j = i + 1; j < chain.size(); ++j) {
        ++dir_meta_[static_cast<size_t>(chain[j])].dir_count;
      }
    }
    ++entry.file_count;
  }
  const uint32_t slot = AllocateSlot();
  FileSlot& file = Slot(slot);
  StoreName(std::string_view(path).substr(path.rfind('/') + 1), &file);
  file.size_bytes = size_bytes;
  file.record_count = record_count;
  file.created_at = clock_->Now();
  file.dir = chain.empty() ? common::StringInterner::kInvalidId : chain[0];
  LinkFile(slot);
  IndexSlot(slot, hash);
  ++stats_.total_objects;
  ++stats_.file_count;
  ++stats_.create_calls;
  CountRpc();
  return Status::OK();
}

Status NameNode::DeleteFile(std::string_view path) {
  size_t bucket = 0;
  const uint32_t slot = FindSlot(path, CounterRng::HashString(path), &bucket);
  if (slot == kNoSlot) {
    return Status::NotFound("no such file: " + std::string(path));
  }
  UnindexBucket(bucket);
  FileSlot& file = Slot(slot);
  for (common::StringInterner::Id id = file.dir;
       id != common::StringInterner::kInvalidId;
       id = dir_meta_[static_cast<size_t>(id)].parent) {
    DirEntry& entry = dir_meta_[static_cast<size_t>(id)];
    if (entry.file_count > 0) --entry.file_count;
  }
  UnlinkFile(slot);
  live_name_bytes_ -= file.name_length;
  dead_name_bytes_ += file.name_length;
  file.dir = kFreeSlot;
  file.next_in_dir = free_slot_;
  free_slot_ = slot;
  --stats_.total_objects;
  --stats_.file_count;
  ++stats_.delete_calls;
  CountRpc();
  MaybeCompactNames();
  return Status::OK();
}

Status NameNode::Open(std::string_view path) {
  ++stats_.open_calls;
  CountRpc();
  // Injected read timeout, on top of the organic load model. Counted in
  // AggregateStats().timeouts so callers' retry paths see one failure mode.
  if (fault_ != nullptr &&
      fault_->Arm(fault::kSiteStorageOpen, path) == fault::FaultKind::kTimeout) {
    ++stats_.timeouts;
    if (trace_ != nullptr && trace_->enabled(obs::TraceLevel::kFull)) {
      trace_->Instant(obs::TraceLevel::kFull, obs::SpanCategory::kStorage,
                      "storage.open_timeout", clock_->Now(),
                      "path=" + std::string(path) + ";injected=1");
    }
    return fault::FaultInjector::ToStatus(fault::FaultKind::kTimeout,
                                          fault::kSiteStorageOpen, path);
  }
  // One hash serves the timeout draw and the lookup.
  const uint64_t hash = CounterRng::HashString(path);
  const double p_timeout = CurrentTimeoutProbability();
  bool timed_out = false;
  if (p_timeout > 0.0) {
    if (epoch_load_ != nullptr) {
      // Counter-based draw: a pure function of (seed, path, open index),
      // so the outcome cannot depend on draws made for other tables.
      timed_out = CounterRng::Uniform01(
                      options_.seed, hash,
                      static_cast<uint64_t>(stats_.open_calls)) < p_timeout;
    } else {
      timed_out = rng_.Bernoulli(p_timeout);
    }
  }
  if (timed_out) {
    ++stats_.timeouts;
    if (trace_ != nullptr && trace_->enabled(obs::TraceLevel::kFull)) {
      trace_->Instant(obs::TraceLevel::kFull, obs::SpanCategory::kStorage,
                      "storage.open_timeout", clock_->Now(),
                      "path=" + std::string(path) + ";injected=0", p_timeout);
    }
    return Status::TimedOut("read timeout under NameNode RPC pressure: " +
                            std::string(path));
  }
  if (FindSlot(path, hash) == kNoSlot) {
    return Status::NotFound("no such file: " + std::string(path));
  }
  return Status::OK();
}

Result<FileInfo> NameNode::Stat(std::string_view path) const {
  const uint32_t slot = FindSlot(path, CounterRng::HashString(path));
  if (slot == kNoSlot) {
    return Status::NotFound("no such file: " + std::string(path));
  }
  return InfoOf(Slot(slot), std::string(path));
}

bool NameNode::Exists(std::string_view path) const {
  return FindSlot(path, CounterRng::HashString(path)) != kNoSlot;
}

void NameNode::ForEachFile(
    const std::function<void(const std::string&)>& fn) const {
  std::string path;
  for (const uint32_t slot : SlotsByPath()) {
    PathOf(Slot(slot), &path);
    fn(path);
  }
}

Status NameNode::AuditAccounting() const {
  // The file table itself: every live slot's basename lies in its name
  // page, the pages hold exactly the live and the not yet reclaimed
  // bytes, the directory lists and the free list together cover every
  // slot once, and the index holds one entry per live file.
  int64_t live = 0;
  int64_t live_bytes = 0;
  for (uint32_t i = 0; i < slot_count_; ++i) {
    const FileSlot& slot = Slot(i);
    if (slot.dir == kFreeSlot) continue;
    if (slot.name_page >= name_pages_.size() ||
        static_cast<size_t>(slot.name_offset) + slot.name_length >
            name_pages_[slot.name_page].size()) {
      return Status::Internal("file slot basename outside its name page");
    }
    ++live;
    live_bytes += slot.name_length;
  }
  int64_t free_slots = 0;
  for (uint32_t s = free_slot_; s != kNoSlot; s = Slot(s).next_in_dir) {
    if (s >= slot_count_ || Slot(s).dir != kFreeSlot ||
        ++free_slots > static_cast<int64_t>(slot_count_)) {
      return Status::Internal("free-slot list is corrupt");
    }
  }
  int64_t listed = 0;
  for (common::StringInterner::Id dir = common::StringInterner::kInvalidId;
       dir < static_cast<common::StringInterner::Id>(dir_meta_.size());
       ++dir) {
    uint32_t prev = kNoSlot;
    for (uint32_t s = FirstFile(dir); s != kNoSlot; s = Slot(s).next_in_dir) {
      if (s >= slot_count_ || Slot(s).dir != dir ||
          Slot(s).prev_in_dir != prev ||
          ++listed > static_cast<int64_t>(slot_count_)) {
        return Status::Internal("directory file list is corrupt");
      }
      prev = s;
    }
  }
  int64_t paged_slots = 0;
  for (const std::vector<FileSlot>& page : slot_pages_) {
    paged_slots += static_cast<int64_t>(page.size());
  }
  int64_t page_bytes = 0;
  for (const std::vector<char>& page : name_pages_) {
    page_bytes += static_cast<int64_t>(page.size());
  }
  const int64_t indexed = std::count_if(
      index_.begin(), index_.end(),
      [](uint64_t entry) { return entry != kEmptyBucket; });
  if (live != live_files_ || indexed != live || listed != live ||
      live + free_slots != slot_count_ || paged_slots != slot_count_ ||
      live_bytes != live_name_bytes_ ||
      page_bytes != live_bytes + dead_name_bytes_) {
    return Status::Internal(
        "file table: " + std::to_string(live) + " live slots, " +
        std::to_string(live_files_) + " counted, " + std::to_string(indexed) +
        " indexed, " + std::to_string(listed) + " listed, " +
        std::to_string(free_slots) + " free of " +
        std::to_string(slot_count_) + " (" + std::to_string(paged_slots) +
        " paged); names " + std::to_string(page_bytes) + " bytes, " +
        std::to_string(live_bytes) + " live (" +
        std::to_string(live_name_bytes_) + " counted) + " +
        std::to_string(dead_name_bytes_) + " dead");
  }
  if (stats_.file_count != live) {
    return Status::Internal(
        "file_count counter " + std::to_string(stats_.file_count) +
        " != actual " + std::to_string(live));
  }
  if (stats_.total_objects != live + existing_dir_count_) {
    return Status::Internal(
        "total_objects counter " + std::to_string(stats_.total_objects) +
        " != actual " + std::to_string(live + existing_dir_count_));
  }
  // Recount the maintained subtree tallies from scratch — per-directory
  // contained files via string prefixes of the rebuilt paths
  // (deliberately not the parent links, so the audit cross-checks the id
  // plumbing itself) and contained dirs via the parent links of every
  // existing directory. Each path's hash must also lead to its slot.
  std::vector<int64_t> file_recount(dir_meta_.size(), 0);
  std::vector<int64_t> dir_recount(dir_meta_.size(), 0);
  std::string path;
  for (uint32_t slot = 0; slot < slot_count_; ++slot) {
    if (Slot(slot).dir == kFreeSlot) continue;
    PathOf(Slot(slot), &path);
    if (FindSlot(path, CounterRng::HashString(path)) != slot) {
      return Status::Internal("index does not reach file " + path);
    }
    for (const auto& dir : ParentDirs(path)) {
      const auto id = dir_ids_.Lookup(dir);
      if (id == common::StringInterner::kInvalidId ||
          !dir_meta_[static_cast<size_t>(id)].exists) {
        return Status::Internal("untracked parent directory " + dir +
                                " of file " + path);
      }
      ++file_recount[static_cast<size_t>(id)];
    }
  }
  int64_t existing = 0;
  for (size_t id = 0; id < dir_meta_.size(); ++id) {
    if (!dir_meta_[id].exists) continue;
    ++existing;
    for (auto p = dir_meta_[id].parent;
         p != common::StringInterner::kInvalidId;
         p = dir_meta_[static_cast<size_t>(p)].parent) {
      ++dir_recount[static_cast<size_t>(p)];
    }
  }
  if (existing != existing_dir_count_) {
    return Status::Internal("existing_dir_count " +
                            std::to_string(existing_dir_count_) +
                            " != recount " + std::to_string(existing));
  }
  for (size_t id = 0; id < dir_meta_.size(); ++id) {
    const DirEntry& entry = dir_meta_[id];
    if (entry.file_count != file_recount[id]) {
      return Status::Internal(
          "directory " + dir_ids_.NameOf(static_cast<int32_t>(id)) +
          " tally " + std::to_string(entry.file_count) + " != recount " +
          std::to_string(file_recount[id]));
    }
    if (entry.dir_count != dir_recount[id]) {
      return Status::Internal(
          "directory " + dir_ids_.NameOf(static_cast<int32_t>(id)) +
          " dir tally " + std::to_string(entry.dir_count) + " != recount " +
          std::to_string(dir_recount[id]));
    }
  }
  return Status::OK();
}

std::vector<FileInfo> NameNode::ListFiles(const std::string& dir_prefix) {
  // A path starts with `dir_prefix` + '/' exactly when its directory
  // name + '/' does (a basename holds no '/'), so the match is decided
  // once per directory and only matching directories' files are visited.
  const std::string prefix = dir_prefix + "/";
  std::vector<uint32_t> order;
  for (common::StringInterner::Id dir = common::StringInterner::kInvalidId;
       dir < static_cast<common::StringInterner::Id>(dir_meta_.size());
       ++dir) {
    const std::string_view name = DirName(dir);
    if (name.size() + 1 >= prefix.size() &&
        (name.starts_with(prefix) ||
         (name.size() + 1 == prefix.size() && prefix.starts_with(name)))) {
      for (uint32_t s = FirstFile(dir); s != kNoSlot;
           s = Slot(s).next_in_dir) {
        order.push_back(s);
      }
    }
  }
  SortByPath(&order);
  std::vector<FileInfo> out;
  out.reserve(order.size());
  std::string path;
  for (const uint32_t slot : order) {
    PathOf(Slot(slot), &path);
    out.push_back(InfoOf(Slot(slot), path));
  }
  ++stats_.list_calls;
  CountRpc(1 + static_cast<int64_t>(out.size()) / 1000);
  return out;
}

void NameNode::SetNamespaceQuota(const std::string& dir, int64_t max_objects) {
  const common::StringInterner::Id id = InternDir(dir);
  DirEntry& entry = dir_meta_[static_cast<size_t>(id)];
  const int64_t quota = max_objects <= 0 ? 0 : max_objects;
  if (entry.quota > 0 && quota == 0) --active_quota_count_;
  if (entry.quota == 0 && quota > 0) ++active_quota_count_;
  entry.quota = quota;
}

QuotaStatus NameNode::GetQuota(const std::string& dir) const {
  QuotaStatus q;
  const common::StringInterner::Id id = dir_ids_.Lookup(dir);
  if (id == common::StringInterner::kInvalidId) return q;
  const DirEntry& entry = dir_meta_[static_cast<size_t>(id)];
  q.total_objects = entry.quota;
  q.used_objects = entry.file_count + entry.dir_count;
  return q;
}

int64_t NameNode::RpcsThisHour() const {
  return RpcsInHour(clock_->Now());
}

int64_t NameNode::RpcsInHour(SimTime hour_start) const {
  const auto it = rpcs_by_hour_.find((hour_start / kHour) * kHour);
  return it == rpcs_by_hour_.end() ? 0 : it->second;
}

double NameNode::CurrentTimeoutProbability() const {
  if (epoch_load_ != nullptr) {
    return epoch_load_->TimeoutProbabilityAt(clock_->Now());
  }
  return TimeoutProbabilityForLoad(options_,
                                   static_cast<double>(RpcsThisHour()));
}

void NameNode::CountRpc(int64_t n) {
  const SimTime hour = (clock_->Now() / kHour) * kHour;
  if (hour != rpc_hour_) {
    rpc_hour_ = hour;
    rpc_slot_ = &rpcs_by_hour_[hour];
  }
  *rpc_slot_ += n;
}

void NameNode::SaveState(common::BlobWriter* w) const {
  const Rng::State rng = rng_.SaveState();
  for (uint64_t v : rng.state) w->WriteU64(v);
  w->WriteU64(rng.origin_seed);
  w->WriteBool(rng.have_cached_normal);
  w->WriteF64(rng.cached_normal);

  w->WriteU64(static_cast<uint64_t>(live_files_));
  std::string path;
  for (const uint32_t slot : SlotsByPath()) {
    const FileSlot& file = Slot(slot);
    PathOf(file, &path);
    w->WriteString(path);
    w->WriteI64(file.size_bytes);
    w->WriteI64(file.record_count);
    w->WriteI64(file.created_at);
  }

  // Directory interner + per-directory accounting, in id order so the
  // restore re-interns into identical ids (NFR2: NameLess tie-breaks and
  // parent links survive byte for byte).
  const int64_t dir_count = dir_ids_.size();
  w->WriteI64(dir_count);
  for (int64_t id = 0; id < dir_count; ++id) {
    w->WriteString(dir_ids_.NameOf(static_cast<common::StringInterner::Id>(id)));
  }
  w->WriteU64(dir_meta_.size());
  for (const DirEntry& e : dir_meta_) {
    w->WriteI32(e.parent);
    w->WriteBool(e.exists);
    w->WriteI64(e.file_count);
    w->WriteI64(e.dir_count);
    w->WriteI64(e.quota);
  }
  w->WriteI64(existing_dir_count_);
  w->WriteI64(active_quota_count_);

  w->WriteI64(stats_.total_objects);
  w->WriteI64(stats_.file_count);
  w->WriteI64(stats_.open_calls);
  w->WriteI64(stats_.create_calls);
  w->WriteI64(stats_.delete_calls);
  w->WriteI64(stats_.list_calls);
  w->WriteI64(stats_.timeouts);

  w->WriteU64(rpcs_by_hour_.size());
  for (const auto& [hour, n] : rpcs_by_hour_) {
    w->WriteI64(hour);
    w->WriteI64(n);
  }
}

Status NameNode::RestoreState(common::BlobReader* r) {
  if (dir_ids_.size() != 0 || slot_count_ != 0) {
    return Status::Internal("NameNode::RestoreState requires a fresh node");
  }
  Rng::State rng;
  for (uint64_t& v : rng.state) v = r->ReadU64();
  rng.origin_seed = r->ReadU64();
  rng.have_cached_normal = r->ReadBool();
  rng.cached_normal = r->ReadF64();
  rng_.RestoreState(rng);

  // Files come before the directory interner in the blob, so each path
  // stays a view until its directory id can be looked up. The views point
  // into the reader's string arena (the paths are front-coded, so the
  // blob never holds them whole) and live as long as `r`.
  const uint64_t file_count = r->ReadCount();
  std::vector<std::string_view> paths;
  paths.reserve(file_count);
  if (file_count > 0) {
    slot_pages_.emplace_back().reserve(
        std::min<uint64_t>(kSlotPage, file_count));
  }
  size_t name_bytes = 0;
  for (uint64_t i = 0; i < file_count && r->ok(); ++i) {
    const std::string_view path = r->ReadStringView();
    FileSlot& slot = Slot(AllocateSlot());
    slot.size_bytes = r->ReadI64();
    slot.record_count = r->ReadI64();
    slot.created_at = r->ReadI64();
    const size_t slash = path.rfind('/');
    if (!r->ok() || slash == std::string_view::npos) break;
    paths.push_back(path);
    name_bytes += path.size() - slash - 1;
  }
  if (!r->ok() || paths.size() != file_count) {
    return Status::Internal("malformed NameNode checkpoint file table");
  }

  const int64_t dir_count = r->ReadI64();
  for (int64_t id = 0; id < dir_count && r->ok(); ++id) {
    const common::StringInterner::Id got = dir_ids_.Intern(r->ReadString());
    if (got != static_cast<common::StringInterner::Id>(id)) {
      return Status::Internal("NameNode checkpoint: interner id mismatch");
    }
  }
  dir_meta_.resize(r->ReadCount());
  if (static_cast<int64_t>(dir_meta_.size()) != dir_ids_.size()) {
    return Status::Internal("NameNode checkpoint: directory count mismatch");
  }
  for (size_t id = 0; id < dir_meta_.size(); ++id) {
    DirEntry& e = dir_meta_[id];
    e.name = dir_ids_.NameOf(static_cast<common::StringInterner::Id>(id));
    e.parent = r->ReadI32();
    e.exists = r->ReadBool();
    e.file_count = r->ReadI64();
    e.dir_count = r->ReadI64();
    e.quota = r->ReadI64();
    // Parents are interned before their children, so a parent id is
    // always smaller: this also rules out cycles.
    if (e.parent < common::StringInterner::kInvalidId ||
        e.parent >= static_cast<common::StringInterner::Id>(id)) {
      return Status::Internal("NameNode checkpoint: bad directory parent");
    }
  }
  existing_dir_count_ = r->ReadI64();
  active_quota_count_ = r->ReadI64();

  // Resolve each file's directory (consecutive files mostly share one)
  // and fill the name pages, the directory lists and the index.
  if (name_bytes > 0) {
    name_pages_.emplace_back().reserve(std::min(kNamePage, name_bytes));
  }
  if (!paths.empty()) {
    size_t buckets = kMinBuckets;
    while (paths.size() * 4 > buckets * 3) buckets *= 2;
    ResizeIndex(buckets);
  }
  std::string_view last_dir;
  common::StringInterner::Id last_id = common::StringInterner::kInvalidId;
  for (uint32_t i = 0; i < paths.size(); ++i) {
    const std::string_view path = paths[i];
    const size_t slash = path.rfind('/');
    const std::string_view dir = path.substr(0, slash);
    if (slash > 0 && (last_id == common::StringInterner::kInvalidId ||
                      dir != last_dir)) {
      last_id = dir_ids_.Lookup(dir);
      last_dir = dir;
      if (last_id == common::StringInterner::kInvalidId) {
        return Status::Internal("NameNode checkpoint: file in unknown "
                                "directory");
      }
    }
    const uint64_t hash = CounterRng::HashString(path);
    if (FindSlot(path, hash) != kNoSlot) {
      return Status::Internal("NameNode checkpoint: duplicate file");
    }
    FileSlot& slot = Slot(i);
    slot.dir = slash > 0 ? last_id : common::StringInterner::kInvalidId;
    StoreName(path.substr(slash + 1), &slot);
    LinkFile(i);
    IndexSlot(i, hash);
  }

  stats_.total_objects = r->ReadI64();
  stats_.file_count = r->ReadI64();
  stats_.open_calls = r->ReadI64();
  stats_.create_calls = r->ReadI64();
  stats_.delete_calls = r->ReadI64();
  stats_.list_calls = r->ReadI64();
  stats_.timeouts = r->ReadI64();

  const uint64_t rpc_hours = r->ReadCount();
  for (uint64_t i = 0; i < rpc_hours && r->ok(); ++i) {
    const SimTime hour = r->ReadI64();
    rpcs_by_hour_[hour] = r->ReadI64();
  }
  // Invalidate the per-hour slot cache: it points into the old map.
  rpc_hour_ = -1;
  rpc_slot_ = nullptr;
  if (!r->ok()) return Status::Internal("truncated NameNode checkpoint");
  return Status::OK();
}

}  // namespace autocomp::storage
