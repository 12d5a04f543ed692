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
                 for (const DataFile& f : files) bytes += f.path.size();
                 return bytes;
               }()) {
  for (const DataFile& f : files) Append(f.view());
  Seal();
}

Manifest::Manifest(int64_t manifest_id,
                   std::shared_ptr<common::StringInterner> interner,
                   size_t file_count, size_t path_bytes)
    : manifest_id_(manifest_id), interner_(std::move(interner)) {
  size_column_.reserve(file_count);
  record_count_column_.reserve(file_count);
  added_snapshot_column_.reserve(file_count);
  sequence_number_column_.reserve(file_count);
  partition_column_.reserve(file_count);
  flag_column_.reserve(file_count);
  path_ends_.reserve(file_count);
  paths_.reserve(path_bytes);
}

void Manifest::Append(const DataFileRef& f) {
  AUTOCOMP_CHECK(paths_.size() + f.path.size() <=
                 std::numeric_limits<uint32_t>::max())
      << "manifest path buffer exceeds 4 GiB";
  paths_.insert(paths_.end(), f.path.begin(), f.path.end());
  path_ends_.push_back(static_cast<uint32_t>(paths_.size()));
  total_bytes_ += f.file_size_bytes;
  size_column_.push_back(f.file_size_bytes);
  record_count_column_.push_back(f.record_count);
  added_snapshot_column_.push_back(f.added_snapshot_id);
  sequence_number_column_.push_back(f.sequence_number);
  partition_column_.push_back(interner_->Intern(f.partition));
  uint8_t flags = 0;
  if (f.content == FileContent::kPositionDeletes) {
    flags |= kFlagPositionDeletes;
  }
  if (!f.clustered) flags |= kFlagUnclustered;
  flag_column_.push_back(flags);
}

void Manifest::Seal() {
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
    size_t file_count, size_t path_bytes)
    : manifest_(new Manifest(manifest_id, std::move(interner), file_count,
                             path_bytes)) {}

ManifestPtr ManifestWriter::Finish() {
  manifest_->Seal();
  return ManifestPtr(std::move(manifest_));
}

}  // namespace autocomp::lst
