#include "lst/manifest.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace autocomp::lst {

Manifest::Manifest(int64_t manifest_id, const std::vector<DataFile>& files)
    : Manifest(manifest_id, std::make_shared<common::StringInterner>(),
               files.size(), [&files] {
                 size_t bytes = 0;
                 for (const DataFile& f : files) {
                   bytes += PathRef::Split(f.path).name.size();
                 }
                 return bytes;
               }()) {
  AppendCursor cursor;
  for (const DataFile& f : files) Append(f.view(), &cursor);
  Seal();
}

Manifest::Manifest(int64_t manifest_id,
                   std::shared_ptr<common::StringInterner> interner,
                   size_t file_count, size_t name_bytes)
    : manifest_id_(manifest_id), interner_(std::move(interner)) {
  size_column_.reserve(file_count);
  record_count_column_.reserve(file_count);
  added_snapshot_column_.reserve(file_count);
  sequence_number_column_.reserve(file_count);
  partition_column_.reserve(file_count);
  flag_column_.reserve(file_count);
  name_ends_.reserve(file_count);
  names_.reserve(name_bytes);
  dir_column_.reserve(file_count);
}

void Manifest::Append(const DataFileRef& f, AppendCursor* cursor) {
  // One write lays a partition's files out back to back, so most entries
  // repeat the previous entry's directory and partition: compare against
  // those before taking the interner's lock.
  uint32_t dir;
  if (!dir_column_.empty() && dirs_[dir_column_.back()] == f.path.dir) {
    dir = dir_column_.back();
  } else {
    dir = DirIndex(interner_->NameOf(interner_->Intern(f.path.dir)));
  }
  if (cursor->partition == common::StringInterner::kInvalidId ||
      cursor->partition_name != f.partition) {
    cursor->partition = interner_->Intern(f.partition);
    cursor->partition_name = interner_->NameOf(cursor->partition);
  }
  uint8_t flags = 0;
  if (f.content == FileContent::kPositionDeletes) {
    flags |= kFlagPositionDeletes;
  }
  if (!f.clustered) flags |= kFlagUnclustered;
  AppendEntry(dir, f.path.name, cursor->partition, flags, f.file_size_bytes,
              f.record_count, f.added_snapshot_id, f.sequence_number);
}

void Manifest::AppendFrom(const Manifest& source, size_t i,
                          AppendCursor* cursor) {
  if (source.interner_ != interner_) {
    Append(source.file(i), cursor);
    return;
  }
  const size_t begin = i == 0 ? 0 : source.name_ends_[i - 1];
  AppendEntry(DirIndex(source.dirs_[source.dir_column_[i]]),
              std::string_view(source.names_.data() + begin,
                               source.name_ends_[i] - begin),
              source.partition_column_[i], source.flag_column_[i],
              source.size_column_[i], source.record_count_column_[i],
              source.added_snapshot_column_[i],
              source.sequence_number_column_[i]);
}

void Manifest::AppendEntry(uint32_t dir, std::string_view name,
                           common::PartitionId partition, uint8_t flags,
                           int64_t file_size_bytes, int64_t record_count,
                           int64_t added_snapshot_id,
                           int64_t sequence_number) {
  AUTOCOMP_CHECK(names_.size() + name.size() <=
                 std::numeric_limits<uint32_t>::max())
      << "manifest name buffer exceeds 4 GiB";
  dir_column_.push_back(dir);
  names_.insert(names_.end(), name.begin(), name.end());
  name_ends_.push_back(static_cast<uint32_t>(names_.size()));
  total_bytes_ += file_size_bytes;
  size_column_.push_back(file_size_bytes);
  record_count_column_.push_back(record_count);
  added_snapshot_column_.push_back(added_snapshot_id);
  sequence_number_column_.push_back(sequence_number);
  partition_column_.push_back(partition);
  flag_column_.push_back(flags);
}

uint32_t Manifest::DirIndex(std::string_view dir) {
  // Interned views of distinct strings never share storage, so the
  // pointer identifies the directory.
  if (!dir_column_.empty() && dirs_[dir_column_.back()].data() == dir.data()) {
    return dir_column_.back();
  }
  for (size_t k = 0; k < dirs_.size(); ++k) {
    if (dirs_[k].data() == dir.data()) return static_cast<uint32_t>(k);
  }
  dirs_.push_back(dir);
  return static_cast<uint32_t>(dirs_.size() - 1);
}

void Manifest::Seal() {
  dirs_.shrink_to_fit();
  partition_ids_ = partition_column_;
  std::sort(partition_ids_.begin(), partition_ids_.end());
  partition_ids_.erase(
      std::unique(partition_ids_.begin(), partition_ids_.end()),
      partition_ids_.end());
  partition_ids_.shrink_to_fit();
  partition_names_.reserve(partition_ids_.size());
  for (const common::PartitionId id : partition_ids_) {
    partition_names_.push_back(interner_->NameOf(id));
  }
}

bool Manifest::HasPartitionId(common::PartitionId id) const {
  return id != common::StringInterner::kInvalidId &&
         std::binary_search(partition_ids_.begin(), partition_ids_.end(), id);
}

DataFileRef Manifest::file(size_t i) const {
  const auto named = std::lower_bound(
      partition_ids_.begin(), partition_ids_.end(), partition_column_[i]);
  const uint8_t flags = flag_column_[i];
  DataFileRef f;
  f.path = path(i);
  f.partition = partition_names_[static_cast<size_t>(
      named - partition_ids_.begin())];
  f.content = (flags & kFlagPositionDeletes) != 0
                  ? FileContent::kPositionDeletes
                  : FileContent::kData;
  f.file_size_bytes = size_column_[i];
  f.record_count = record_count_column_[i];
  f.clustered = (flags & kFlagUnclustered) == 0;
  f.added_snapshot_id = added_snapshot_column_[i];
  f.sequence_number = sequence_number_column_[i];
  return f;
}

ManifestWriter::ManifestWriter(
    int64_t manifest_id, std::shared_ptr<common::StringInterner> interner,
    size_t file_count, size_t name_bytes)
    : manifest_(new Manifest(manifest_id, std::move(interner), file_count,
                             name_bytes)) {}

ManifestPtr ManifestWriter::Finish() {
  manifest_->Seal();
  return ManifestPtr(std::move(manifest_));
}

}  // namespace autocomp::lst
