/// \file manifest.h
/// \brief Manifests and manifest lists: the metadata layer whose growth
/// the paper calls out ("bloated metadata in LSTs", §1).
///
/// Fleet-scale replay hammers this layer: every commit filters or merges
/// manifests, every observe rescan walks them, and one replay keeps
/// hundreds of thousands of entries live. A manifest therefore stores
/// each file once, in columns sized exactly to its entry count:
///
///  * numeric columns — sizes, record counts, added-snapshot ids,
///    sequence numbers, interned partition ids and packed trait flags —
///    so bulk consumers (the incremental stats index rebuild) stream
///    cache-dense arrays and never touch a string;
///  * each path split at its last '/': the file names back to back in one
///    char buffer with end offsets, and per entry a 4-byte index into the
///    manifest's small table of directory views. Directories are interned
///    once per table lineage (in the interner partition keys use), so a
///    directory shared by a thousand files is stored once, and equal
///    directories are pointer-equal views;
///  * the partition summary as a sorted vector of `common::PartitionId`s
///    interned in the table lineage's shared interner — pruning is a
///    Lookup plus binary search, and equal keys cost 4 bytes per entry.
///
/// Readers see entries as DataFileRef views (file(i), range-for), whose
/// path is a PathRef: the interned directory and the stored name.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "lst/data_file.h"

namespace autocomp::lst {

class ManifestWriter;

/// \brief An immutable group of live data files written by one commit (or
/// produced by filtering/merging earlier manifests).
///
/// The simulator keeps only live entries per manifest; deleted entries are
/// dropped when a rewriting commit filters a manifest. Manifests are
/// shared across snapshots via shared_ptr, mirroring how Iceberg snapshots
/// reuse unchanged manifest files.
class Manifest {
 public:
  /// Packed per-file trait flags (the SoA `flag_column`).
  static constexpr uint8_t kFlagPositionDeletes = 1;
  static constexpr uint8_t kFlagUnclustered = 2;

  /// Standalone construction (tests): partition keys are interned into a
  /// private per-manifest interner. Commit paths and decoders build
  /// manifests through TableMetadata::Builder, which shares the
  /// lineage's interner.
  Manifest(int64_t manifest_id, const std::vector<DataFile>& files);

  int64_t manifest_id() const { return manifest_id_; }
  int64_t file_count() const {
    return static_cast<int64_t>(size_column_.size());
  }
  int64_t total_bytes() const { return total_bytes_; }
  /// Length of all file names together (paths without their
  /// directories): what a successor built from these entries reserves
  /// for its name buffer.
  size_t name_bytes() const { return names_.size(); }
  /// Entries of the directory table: the distinct directories of this
  /// manifest's paths.
  size_t directory_count() const { return dirs_.size(); }

  /// Entry `i` (0 <= i < file_count()), viewing this manifest's storage.
  DataFileRef file(size_t i) const;
  /// Entry `i`'s path: O(1), no lock.
  PathRef path(size_t i) const {
    const size_t begin = i == 0 ? 0 : name_ends_[i - 1];
    return PathRef{dirs_[dir_column_[i]],
                   std::string_view(names_.data() + begin,
                                    name_ends_[i] - begin)};
  }

  /// Range-for over the entries in order, as DataFileRef values.
  class Iterator {
   public:
    Iterator(const Manifest* manifest, size_t index)
        : manifest_(manifest), index_(index) {}
    DataFileRef operator*() const { return manifest_->file(index_); }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const Iterator& other) const {
      return index_ == other.index_;
    }

   private:
    const Manifest* manifest_;
    size_t index_;
  };
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size_column_.size()); }

  /// Visits the entries of `partition` in order (every entry when
  /// nullopt). Returns false, visiting nothing, when the partition
  /// summary prunes this manifest.
  template <typename Fn>
  bool ForEachFile(const std::optional<std::string>& partition,
                   Fn&& fn) const {
    if (!partition) {
      for (size_t i = 0; i < size_column_.size(); ++i) fn(file(i));
      return true;
    }
    const common::PartitionId id = interner_->Lookup(*partition);
    if (!HasPartitionId(id)) return false;
    for (size_t i = 0; i < partition_column_.size(); ++i) {
      if (partition_column_[i] == id) fn(file(i));
    }
    return true;
  }

  /// Partition summary used for scan pruning: interned ids, sorted and
  /// deduplicated. Resolve names through partition_interner() — ids from
  /// different interners (different lineages) are not comparable.
  const std::vector<common::PartitionId>& partition_ids() const {
    return partition_ids_;
  }
  int64_t partition_count() const {
    return static_cast<int64_t>(partition_ids_.size());
  }
  const common::StringInterner& partition_interner() const {
    return *interner_;
  }

  bool ContainsPartition(std::string_view partition) const {
    return HasPartitionId(interner_->Lookup(partition));
  }

  /// \name SoA columns (same index space as file(i))
  /// @{
  const std::vector<int64_t>& size_column() const { return size_column_; }
  const std::vector<int64_t>& record_count_column() const {
    return record_count_column_;
  }
  const std::vector<int64_t>& added_snapshot_column() const {
    return added_snapshot_column_;
  }
  const std::vector<int64_t>& sequence_number_column() const {
    return sequence_number_column_;
  }
  const std::vector<common::PartitionId>& partition_column() const {
    return partition_column_;
  }
  const std::vector<uint8_t>& flag_column() const { return flag_column_; }
  /// @}

 private:
  friend class ManifestWriter;

  /// The previous entry's interned partition, carried between appends
  /// so a run of entries in one partition interns it once.
  struct AppendCursor {
    common::PartitionId partition = common::StringInterner::kInvalidId;
    std::string_view partition_name;
  };

  /// An empty manifest with every column reserved at its final size.
  Manifest(int64_t manifest_id,
           std::shared_ptr<common::StringInterner> interner,
           size_t file_count, size_t name_bytes);
  /// Appends `f`, interning its directory and partition unless they
  /// repeat the previous entry's.
  void Append(const DataFileRef& f, AppendCursor* cursor);
  /// Appends entry `i` of `source`. A source sharing this manifest's
  /// interner hands over its interned directory and partition id as is.
  void AppendFrom(const Manifest& source, size_t i, AppendCursor* cursor);
  /// Appends one entry's values to the columns.
  void AppendEntry(uint32_t dir, std::string_view name,
                   common::PartitionId partition, uint8_t flags,
                   int64_t file_size_bytes, int64_t record_count,
                   int64_t added_snapshot_id, int64_t sequence_number);
  /// The directory table index of `dir`, an interned view: the previous
  /// entry's when equal, else found or added by pointer.
  uint32_t DirIndex(std::string_view dir);
  /// Builds the partition summary once every entry is in.
  void Seal();
  bool HasPartitionId(common::PartitionId id) const;

  int64_t manifest_id_;
  int64_t total_bytes_ = 0;
  std::shared_ptr<common::StringInterner> interner_;
  std::vector<common::PartitionId> partition_ids_;
  /// partition_ids_' names, same order (views into interner_'s stable
  /// storage), so file(i) resolves a partition without the interner lock.
  std::vector<std::string_view> partition_names_;
  std::vector<int64_t> size_column_;
  std::vector<int64_t> record_count_column_;
  std::vector<int64_t> added_snapshot_column_;
  std::vector<int64_t> sequence_number_column_;
  std::vector<common::PartitionId> partition_column_;
  std::vector<uint8_t> flag_column_;
  /// Every file name back to back; entry i ends at name_ends_[i].
  std::vector<char> names_;
  std::vector<uint32_t> name_ends_;
  /// Entry i's directory is dirs_[dir_column_[i]]. The table holds views
  /// into interner_'s stable storage, in first-use order, so path(i)
  /// resolves a directory without the interner lock.
  std::vector<uint32_t> dir_column_;
  std::vector<std::string_view> dirs_;
};

using ManifestPtr = std::shared_ptr<const Manifest>;

/// \brief Ordered list of manifests making up one snapshot's view.
using ManifestList = std::vector<ManifestPtr>;

/// \brief Fills one manifest's columns in entry order, then seals it.
///
/// The caller states the final entry count and total name bytes
/// (Manifest::name_bytes(), PathRef::name) up front, so every column but
/// the small directory table is allocated once at exact size: a filter
/// counts its survivors first, a merge sums its inputs, a decoder reads
/// its entries first.
class ManifestWriter {
 public:
  ManifestWriter(int64_t manifest_id,
                 std::shared_ptr<common::StringInterner> interner,
                 size_t file_count, size_t name_bytes);

  /// Copies one entry into the columns (its name into the name buffer;
  /// its directory and partition are interned once per run of equal
  /// ones).
  void Add(const DataFileRef& f) { manifest_->Append(f, &cursor_); }
  /// Copies entry `i` of `source`. Filters and merges within one lineage
  /// go through here: they reuse the source's interned views and never
  /// touch the interner.
  void Add(const Manifest& source, size_t i) {
    manifest_->AppendFrom(source, i, &cursor_);
  }

  /// The sealed manifest; the writer is spent afterwards.
  ManifestPtr Finish();

 private:
  std::unique_ptr<Manifest> manifest_;
  Manifest::AppendCursor cursor_;
};

}  // namespace autocomp::lst
