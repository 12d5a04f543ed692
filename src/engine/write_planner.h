/// \file write_planner.h
/// \brief Models how engine writers fragment data into files.
///
/// The paper attributes small-file proliferation to engine configuration:
/// shuffle partition counts, parallelism, memory limits, AQE advisory
/// sizes (§2 "Causes of Small File Existence", §8 "Tuning Write ...").
/// The planner turns "this job writes B logical bytes into partitions P"
/// into a concrete list of file sizes, reproducing both the well-tuned
/// central-ingestion pipeline (≈512MB files) and untuned user jobs
/// (lognormal small-file spray) from Figure 1.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "format/columnar.h"

namespace autocomp::engine {

/// \brief Writer tuning profile.
struct WriterProfile {
  /// Bytes of *stored* data the writer aims at per file. The central
  /// pipeline uses 512MiB; untuned user jobs land much lower.
  int64_t target_file_bytes = 512 * kMiB;
  /// Parallel write tasks; each open output partition gets one file per
  /// task that received rows for it (the Spark small-file mechanism:
  /// files ~= tasks × partitions).
  int write_tasks = 1;
  /// Lognormal sigma jittering individual file sizes (0 = exact).
  double size_jitter_sigma = 0.35;
  /// Tuned writers repartition before the final write so the output file
  /// count follows the target size; untuned writers flush one file per
  /// task that received rows (Spark's default behaviour).
  bool coalesce_output = false;
};

/// Profile of LinkedIn's managed ingestion pipeline (§2): tuned writers.
WriterProfile TunedPipelineProfile();
/// Profile of an untuned end-user Spark/Trino/Flink job (§2): high
/// parallelism, small per-task flushes.
WriterProfile UntunedUserJobProfile();

/// \brief One file the planner decided to produce.
struct PlannedFile {
  std::string partition;  // empty for unpartitioned
  int64_t stored_bytes = 0;
  int64_t record_count = 0;
};

/// \brief Plans output files for a write of `logical_bytes`, split evenly
/// across `partitions` (empty vector = one unpartitioned chunk).
///
/// Per partition the writer emits max(1, min(write_tasks,
/// ceil(bytes/target))) files under a tuned profile; untuned profiles emit
/// one file per task that received rows, so a 128-task job writing 100MB
/// into a partition sprays 128 tiny files. File sizes get deterministic
/// lognormal jitter from `rng`.
std::vector<PlannedFile> PlanWriteFiles(
    int64_t logical_bytes, const std::vector<std::string>& partitions,
    const WriterProfile& profile, const format::ColumnarFileModel& format,
    Rng* rng);

/// \brief Exact number of files PlanWriteFiles would emit, without
/// drawing from any rng. The planner's rng only jitters file *sizes*;
/// the count is pure arithmetic in (logical_bytes, partition count,
/// profile, format), and both functions take it from one per-partition
/// layout rule. The lazy fleet driver uses this to publish an
/// unhydrated lane's NameNode CreateFile contribution into the epoch
/// barrier before the lane's environment exists.
int64_t PlannedFileCount(int64_t logical_bytes, size_t num_partitions,
                         const WriterProfile& profile,
                         const format::ColumnarFileModel& format);

}  // namespace autocomp::engine
