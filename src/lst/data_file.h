/// \file data_file.h
/// \brief Immutable data-file descriptors tracked in table metadata.

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/units.h"

namespace autocomp::lst {

/// \brief Kind of content a tracked file holds. MoR tables accumulate
/// delete (delta) files that compaction folds back into data files (§2,
/// "Merge-on-Read configurations generate delta files that accumulate").
enum class FileContent : int {
  kData,
  /// Row-level deletes pending merge (MoR delta file).
  kPositionDeletes,
};

/// \brief A file path held as two views, directory and file name, whose
/// concatenation is the path. The directory keeps the last '/' ("/a/b/"
/// + "x"); a path without '/' has an empty directory.
///
/// Manifests store each directory once per table lineage, interned, and
/// only the name per entry, so their entries reach readers in this form.
/// Equal interned directories are pointer-equal views, which lets
/// Compare skip them.
struct PathRef {
  std::string_view dir;
  std::string_view name;

  /// Splits `path` after its last '/'. The views point into `path`.
  static PathRef Split(std::string_view path) {
    const size_t cut = path.rfind('/') + 1;  // 0 when there is no '/'
    return PathRef{path.substr(0, cut), path.substr(cut)};
  }

  size_t size() const { return dir.size() + name.size(); }
  /// The path as one string.
  std::string str() const {
    std::string out;
    AssignTo(&out);
    return out;
  }
  /// Renders the path into `out`, reusing its capacity (one allocation
  /// at most).
  void AssignTo(std::string* out) const {
    out->reserve(size());
    out->assign(dir);
    out->append(name);
  }

  /// Three-way byte order of the concatenated paths (negative, zero or
  /// positive), the order of std::string::compare: "/a/b-c/y" sorts
  /// before "/a/b/x".
  int Compare(std::string_view other) const {
    const size_t n = std::min(dir.size(), other.size());
    if (const int c = Bytes(dir.data(), other.data(), n); c != 0) return c;
    if (dir.size() > other.size()) return 1;
    return Sign(name.compare(other.substr(dir.size())));
  }
  int Compare(const PathRef& other) const {
    if (dir.data() == other.dir.data() && dir.size() == other.dir.size()) {
      return Sign(name.compare(other.name));
    }
    // Walk both concatenations piecewise with `a` the side whose
    // directory is shorter: the directories' common length, then a's
    // name against the rest of b's directory, then what is left of a's
    // name against b's name.
    const bool swapped = dir.size() > other.dir.size();
    const PathRef& a = swapped ? other : *this;
    const PathRef& b = swapped ? *this : other;
    const int sign = swapped ? -1 : 1;
    const size_t head = a.dir.size();
    if (const int c = Bytes(a.dir.data(), b.dir.data(), head); c != 0) {
      return sign * c;
    }
    const std::string_view b_rest = b.dir.substr(head);
    const size_t n = std::min(a.name.size(), b_rest.size());
    if (const int c = Bytes(a.name.data(), b_rest.data(), n); c != 0) {
      return sign * c;
    }
    if (a.name.size() <= b_rest.size()) {
      // a ends here; b is longer unless it ends too.
      return a.name.size() < b_rest.size() || !b.name.empty() ? -sign : 0;
    }
    return sign * Sign(a.name.substr(n).compare(b.name));
  }

  friend bool operator==(const PathRef& a, const PathRef& b) {
    return a.size() == b.size() && a.Compare(b) == 0;
  }
  friend bool operator==(const PathRef& a, std::string_view b) {
    return a.size() == b.size() && a.Compare(b) == 0;
  }

 private:
  static int Sign(int c) { return (c > 0) - (c < 0); }
  /// Sign of the byte order of two equal-length ranges.
  static int Bytes(const char* a, const char* b, size_t n) {
    return Sign(std::char_traits<char>::compare(a, b, n));
  }
};

/// \brief Strict weak order on paths by their concatenated bytes, across
/// PathRef and std::string_view (transparent, for sorted containers and
/// binary search over either form).
struct PathLess {
  using is_transparent = void;
  bool operator()(const PathRef& a, const PathRef& b) const {
    return a.Compare(b) < 0;
  }
  bool operator()(const PathRef& a, std::string_view b) const {
    return a.Compare(b) < 0;
  }
  bool operator()(std::string_view a, const PathRef& b) const {
    return b.Compare(a) > 0;
  }
  bool operator()(std::string_view a, std::string_view b) const {
    return a < b;
  }
};

struct DataFileRef;

/// \brief Metadata entry for one immutable file referenced by a table.
///
/// The owning form: commit inputs, CommitDelta and LiveFiles() carry
/// DataFiles. Manifests do not store them; they hand out DataFileRef
/// views over their columns.
///
/// Matches the fields Iceberg keeps per data file that AutoComp's observe
/// phase consumes: path, partition key, on-disk size, record count, and
/// the snapshot that added the file (enables snapshot-scoped candidates).
struct DataFile {
  std::string path;
  /// Partition key string ("month=1995-03"); empty for unpartitioned.
  std::string partition;
  FileContent content = FileContent::kData;
  int64_t file_size_bytes = 0;
  int64_t record_count = 0;
  /// True when the file was written with a clustering layout (Z-order /
  /// V-order style, §8 "Automatic Data Layout Optimization"): selective
  /// scans can skip row groups inside clustered files.
  bool clustered = false;
  /// Snapshot that added this file (filled in at commit).
  int64_t added_snapshot_id = 0;
  /// Commit sequence number (filled in at commit).
  int64_t sequence_number = 0;

  /// Path identity: two DataFile entries are "the same file" iff their
  /// paths are equal, regardless of the other fields. This is the
  /// contract the whole metadata layer leans on — commit validation,
  /// removed-path sets, and the incremental stats index all treat the
  /// path as the primary key, which is sound only because files are
  /// immutable once written (a path is never reused with different
  /// contents) and because a path is live in at most one table at one
  /// snapshot. fault::CheckInvariants audits live-path uniqueness —
  /// within a table's current snapshot and across tables — every epoch.
  bool operator==(const DataFile& other) const {
    return path == other.path;
  }

  /// A view of this file, valid while this DataFile lives unmodified.
  DataFileRef view() const;
};

/// \brief Read-only view of one file entry: DataFile's fields, with the
/// path (as directory and name) and partition viewing storage someone
/// else owns.
///
/// Manifest iteration, TableMetadata::ForEachLiveFile and Table::PlanScan
/// hand these out; they stay valid while the manifest (or the
/// TableMetadataPtr pinning it) is alive. ToDataFile() makes an owning
/// copy for callers that keep a file past that.
struct DataFileRef {
  PathRef path;
  std::string_view partition;
  FileContent content = FileContent::kData;
  int64_t file_size_bytes = 0;
  int64_t record_count = 0;
  bool clustered = false;
  int64_t added_snapshot_id = 0;
  int64_t sequence_number = 0;

  DataFile ToDataFile() const {
    return DataFile{path.str(), std::string(partition), content,
                    file_size_bytes, record_count, clustered,
                    added_snapshot_id, sequence_number};
  }
};

inline DataFileRef DataFile::view() const {
  return DataFileRef{PathRef::Split(path), partition, content,
                     file_size_bytes, record_count, clustered,
                     added_snapshot_id, sequence_number};
}

}  // namespace autocomp::lst
