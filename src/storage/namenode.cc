#include "storage/namenode.h"

#include <algorithm>
#include <cassert>

#include "common/counter_rng.h"
#include "fault/fault_injector.h"
#include "obs/trace.h"
#include "storage/epoch_load.h"

namespace autocomp::storage {

NameNode::NameNode(const Clock* clock, NameNodeOptions options)
    : clock_(clock), options_(options), rng_(options.seed) {
  assert(clock_ != nullptr);
}

FileInfo NameNode::ToInfo(const FileMap::value_type& file) {
  const auto& [path, record] = file;
  return FileInfo{path, record.size_bytes, record.record_count,
                  record.created_at};
}

std::vector<std::string> NameNode::ParentDirs(const std::string& path) {
  std::vector<std::string> dirs;
  size_t pos = 0;
  // "/a/b/c.parquet" -> "/a", "/a/b".
  while ((pos = path.find('/', pos + 1)) != std::string::npos) {
    dirs.push_back(path.substr(0, pos));
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
  dir_meta_[static_cast<size_t>(id)].parent = parent;
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
  const auto hint = files_.lower_bound(path);
  if (hint != files_.end() && hint->first == path) {
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
  files_.emplace_hint(hint, path,
                      FileRecord{size_bytes, record_count, clock_->Now()});
  ++stats_.total_objects;
  ++stats_.file_count;
  ++stats_.create_calls;
  CountRpc();
  return Status::OK();
}

Status NameNode::DeleteFile(std::string_view path) {
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + std::string(path));
  }
  files_.erase(it);
  --stats_.total_objects;
  --stats_.file_count;
  ++stats_.delete_calls;
  ParentChain(path, &chain_scratch_);
  for (const common::StringInterner::Id id : chain_scratch_) {
    DirEntry& entry = dir_meta_[static_cast<size_t>(id)];
    if (entry.file_count > 0) --entry.file_count;
  }
  CountRpc();
  return Status::OK();
}

Result<FileInfo> NameNode::Open(std::string_view path) {
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
  const double p_timeout = CurrentTimeoutProbability();
  bool timed_out = false;
  if (p_timeout > 0.0) {
    if (epoch_load_ != nullptr) {
      // Counter-based draw: a pure function of (seed, path, open index),
      // so the outcome cannot depend on draws made for other tables.
      timed_out = CounterRng::Uniform01(
                      options_.seed, CounterRng::HashString(path),
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
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + std::string(path));
  }
  return ToInfo(*it);
}

Result<FileInfo> NameNode::Stat(std::string_view path) const {
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + std::string(path));
  }
  return ToInfo(*it);
}

bool NameNode::Exists(std::string_view path) const {
  return files_.find(path) != files_.end();
}

void NameNode::ForEachFile(
    const std::function<void(const std::string&)>& fn) const {
  for (const auto& [path, _] : files_) fn(path);
}

Status NameNode::AuditAccounting() const {
  if (stats_.file_count != static_cast<int64_t>(files_.size())) {
    return Status::Internal(
        "file_count counter " + std::to_string(stats_.file_count) +
        " != actual " + std::to_string(files_.size()));
  }
  if (stats_.total_objects !=
      static_cast<int64_t>(files_.size()) + existing_dir_count_) {
    return Status::Internal(
        "total_objects counter " + std::to_string(stats_.total_objects) +
        " != actual " +
        std::to_string(static_cast<int64_t>(files_.size()) +
                       existing_dir_count_));
  }
  // Recount the maintained subtree tallies from scratch — per-directory
  // contained files via string prefixes (deliberately not the parent
  // links, so the audit cross-checks the id plumbing itself) and
  // contained dirs via the parent links of every existing directory.
  std::vector<int64_t> file_recount(dir_meta_.size(), 0);
  std::vector<int64_t> dir_recount(dir_meta_.size(), 0);
  for (const auto& [path, _] : files_) {
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
  std::vector<FileInfo> out;
  const std::string prefix = dir_prefix + "/";
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    out.push_back(ToInfo(*it));
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

  w->WriteU64(files_.size());
  for (const auto& [path, record] : files_) {
    w->WriteString(path);
    w->WriteI64(record.size_bytes);
    w->WriteI64(record.record_count);
    w->WriteI64(record.created_at);
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
  if (dir_ids_.size() != 0 || !files_.empty()) {
    return Status::Internal("NameNode::RestoreState requires a fresh node");
  }
  Rng::State rng;
  for (uint64_t& v : rng.state) v = r->ReadU64();
  rng.origin_seed = r->ReadU64();
  rng.have_cached_normal = r->ReadBool();
  rng.cached_normal = r->ReadF64();
  rng_.RestoreState(rng);

  const uint64_t file_count = r->ReadCount();
  for (uint64_t i = 0; i < file_count && r->ok(); ++i) {
    std::string path = r->ReadString();
    FileRecord record;
    record.size_bytes = r->ReadI64();
    record.record_count = r->ReadI64();
    record.created_at = r->ReadI64();
    files_.emplace_hint(files_.end(), std::move(path), record);
  }

  const int64_t dir_count = r->ReadI64();
  for (int64_t id = 0; id < dir_count && r->ok(); ++id) {
    const common::StringInterner::Id got = dir_ids_.Intern(r->ReadString());
    if (got != static_cast<common::StringInterner::Id>(id)) {
      return Status::Internal("NameNode checkpoint: interner id mismatch");
    }
  }
  dir_meta_.resize(r->ReadCount());
  for (DirEntry& e : dir_meta_) {
    e.parent = r->ReadI32();
    e.exists = r->ReadBool();
    e.file_count = r->ReadI64();
    e.dir_count = r->ReadI64();
    e.quota = r->ReadI64();
  }
  existing_dir_count_ = r->ReadI64();
  active_quota_count_ = r->ReadI64();

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
