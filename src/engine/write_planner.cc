#include "engine/write_planner.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace autocomp::engine {

WriterProfile TunedPipelineProfile() {
  WriterProfile p;
  p.target_file_bytes = 512 * kMiB;
  p.write_tasks = 8;
  p.size_jitter_sigma = 0.15;
  p.coalesce_output = true;
  return p;
}

WriterProfile UntunedUserJobProfile() {
  WriterProfile p;
  // Untuned jobs flush per shuffle task; an AQE mis-sizing or high default
  // parallelism yields many files in the 1-32MiB range (Figure 1).
  p.target_file_bytes = 16 * kMiB;
  p.write_tasks = 64;
  p.size_jitter_sigma = 0.8;
  return p;
}

namespace {

/// The files one partition's share of a write becomes: `count` files of
/// `logical_per_file` logical bytes, then one of `tail_bytes` when it is
/// positive.
struct PartitionLayout {
  int64_t count = 0;
  int64_t logical_per_file = 0;
  int64_t tail_bytes = 0;
};

/// The one file-count rule, shared by PlanWriteFiles and
/// PlannedFileCount: the layout of each of `partitions` (>= 1)
/// partitions that split a write of `logical_bytes` evenly. `first` says
/// the write has emitted no file yet.
PartitionLayout LayoutPartition(int64_t logical_bytes, size_t partitions,
                                bool first, const WriterProfile& profile,
                                const format::ColumnarFileModel& format) {
  const int64_t bytes = std::max<int64_t>(
      1, logical_bytes / static_cast<int64_t>(partitions));
  PartitionLayout layout;
  if (profile.coalesce_output) {
    // Tuned writers roll files at the target stored size: full files at
    // the target, plus one remainder (Spark's rolling file writer).
    layout.logical_per_file = std::max<int64_t>(
        1, format.LogicalBytesForStored(profile.target_file_bytes));
    layout.count = bytes / layout.logical_per_file;
    const int64_t remaining = bytes - layout.count * layout.logical_per_file;
    // Tiny remainders (<5% of a file) are folded into the last file in
    // practice; emit only meaningful leftovers, or the write's only file.
    if (remaining > layout.logical_per_file / 20 ||
        (first && layout.count == 0)) {
      layout.tail_bytes = remaining > 0 ? remaining : 1;
    }
    return layout;
  }
  // Untuned writers: every task holding rows flushes its own file;
  // tasks are capped by the number of row "chunks" available. Many
  // tasks ⇒ many small files.
  const int64_t packed_stored = format.StoredBytesFor(bytes);
  const int64_t by_target = std::max<int64_t>(
      1, (packed_stored + profile.target_file_bytes - 1) /
             profile.target_file_bytes);
  const int64_t min_chunk = 256 * kKiB;
  const int64_t max_chunks = std::max<int64_t>(1, bytes / min_chunk);
  const int64_t by_tasks = std::min<int64_t>(profile.write_tasks, max_chunks);
  layout.count = std::max(by_target, by_tasks);
  layout.logical_per_file = std::max<int64_t>(1, bytes / layout.count);
  return layout;
}

}  // namespace

std::vector<PlannedFile> PlanWriteFiles(
    int64_t logical_bytes, const std::vector<std::string>& partitions,
    const WriterProfile& profile, const format::ColumnarFileModel& format,
    Rng* rng) {
  assert(rng != nullptr);
  std::vector<PlannedFile> out;
  if (logical_bytes <= 0) return out;

  const std::vector<std::string> parts =
      partitions.empty() ? std::vector<std::string>{""} : partitions;

  auto emit = [&](const std::string& partition, int64_t logical) {
    double jitter = 1.0;
    if (profile.size_jitter_sigma > 0) {
      // Mean-one lognormal jitter: exp(N(-s^2/2, s)).
      const double s = profile.size_jitter_sigma;
      jitter = rng->LogNormal(-0.5 * s * s, s);
    }
    logical = std::max<int64_t>(
        1,
        static_cast<int64_t>(std::llround(static_cast<double>(logical) *
                                          jitter)));
    PlannedFile f;
    f.partition = partition;
    f.stored_bytes = format.StoredBytesFor(logical);
    f.record_count = std::max<int64_t>(1, format.RecordsFor(logical));
    out.push_back(std::move(f));
  };

  for (const std::string& partition : parts) {
    const PartitionLayout layout = LayoutPartition(
        logical_bytes, parts.size(), out.empty(), profile, format);
    for (int64_t i = 0; i < layout.count; ++i) {
      emit(partition, layout.logical_per_file);
    }
    if (layout.tail_bytes > 0) emit(partition, layout.tail_bytes);
  }
  return out;
}

int64_t PlannedFileCount(int64_t logical_bytes, size_t num_partitions,
                         const WriterProfile& profile,
                         const format::ColumnarFileModel& format) {
  if (logical_bytes <= 0) return 0;
  const size_t parts = std::max<size_t>(1, num_partitions);
  int64_t count = 0;
  for (size_t p = 0; p < parts; ++p) {
    const PartitionLayout layout =
        LayoutPartition(logical_bytes, parts, count == 0, profile, format);
    count += layout.count + (layout.tail_bytes > 0 ? 1 : 0);
  }
  return count;
}

}  // namespace autocomp::engine
