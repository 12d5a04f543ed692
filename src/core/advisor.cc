#include "core/advisor.h"

#include <algorithm>

namespace autocomp::core {

const char* AdviceKindName(AdviceKind kind) {
  switch (kind) {
    case AdviceKind::kUntunedWriter:
      return "untuned-writer";
    case AdviceKind::kTrickleAppends:
      return "trickle-appends";
    case AdviceKind::kMorDeltaBacklog:
      return "mor-delta-backlog";
    case AdviceKind::kClusteringOpportunity:
      return "clustering-opportunity";
  }
  return "unknown";
}

Result<std::vector<WriteAdvice>> WriteConfigAdvisor::AnalyzeTable(
    catalog::Catalog* catalog, const std::string& qualified_name) const {
  AUTOCOMP_ASSIGN_OR_RETURN(lst::TableMetadataPtr meta,
                            catalog->LoadTable(qualified_name));
  std::vector<WriteAdvice> advice;

  // --- Writer patterns from the recent commit history (writes only).
  const auto& snapshots = meta->snapshots();
  int commits = 0;
  int64_t added_files = 0;
  int64_t added_bytes = 0;
  int small_commits = 0;
  for (auto it = snapshots.rbegin();
       it != snapshots.rend() && commits < options_.history_window; ++it) {
    if (it->operation == lst::SnapshotOperation::kReplace) continue;
    if (it->added_files <= 0) continue;
    ++commits;
    added_files += it->added_files;
    added_bytes += it->added_bytes;
    if (it->added_bytes / it->added_files < options_.small_write_bytes) {
      ++small_commits;
    }
  }
  if (commits >= options_.min_commits && added_files > 0) {
    const int64_t mean_file = added_bytes / added_files;
    if (mean_file < options_.small_write_bytes) {
      const double files_per_commit =
          static_cast<double>(added_files) / commits;
      if (files_per_commit >= 8) {
        advice.push_back(WriteAdvice{
            qualified_name, AdviceKind::kUntunedWriter,
            "writes add ~" + std::to_string(static_cast<int64_t>(
                                 files_per_commit)) +
                " files of " + FormatBytes(mean_file) +
                " mean size per commit; enable output coalescing or raise "
                "the shuffle-partition size toward the " +
                FormatBytes(meta->target_file_size_bytes()) + " target",
            static_cast<double>(options_.small_write_bytes - mean_file) /
                static_cast<double>(options_.small_write_bytes) +
                files_per_commit / 64.0});
      } else {
        advice.push_back(WriteAdvice{
            qualified_name, AdviceKind::kTrickleAppends,
            "frequent small appends (" + std::to_string(small_commits) +
                " of the last " + std::to_string(commits) +
                " commits add files of " + FormatBytes(mean_file) +
                " mean size); attach an optimize-after-write hook or an "
                "hourly rollup",
            static_cast<double>(small_commits) / commits});
      }
    }
  }

  // --- MoR delta backlog.
  int64_t delete_files = 0;
  int64_t unclustered_bytes = 0;
  meta->ForEachLiveFile([&](const lst::DataFileRef& f) {
    if (f.content == lst::FileContent::kPositionDeletes) ++delete_files;
    if (!f.clustered) unclustered_bytes += f.file_size_bytes;
  });
  if (delete_files >= options_.mor_backlog_threshold) {
    advice.push_back(WriteAdvice{
        qualified_name, AdviceKind::kMorDeltaBacklog,
        std::to_string(delete_files) +
            " merge-on-read delta files pending; every scan pays a merge "
            "penalty per delta — schedule a fold-in compaction",
        static_cast<double>(delete_files) /
            options_.mor_backlog_threshold});
  }

  // --- Clustering opportunity on hot, large, unclustered tables.
  const catalog::TableAccessStats access =
      catalog->GetAccessStats(qualified_name);
  if (access.read_count >= options_.hot_read_threshold &&
      unclustered_bytes >= options_.clustering_min_bytes) {
    advice.push_back(WriteAdvice{
        qualified_name, AdviceKind::kClusteringOpportunity,
        "read " + std::to_string(access.read_count) + " times with " +
            FormatBytes(unclustered_bytes) +
            " unclustered; a clustering rewrite (~1.6x one-off cost) lets "
            "selective scans skip row groups",
        static_cast<double>(access.read_count) /
            options_.hot_read_threshold});
  }
  return advice;
}

Result<std::vector<WriteAdvice>> WriteConfigAdvisor::Analyze(
    catalog::Catalog* catalog) const {
  std::vector<WriteAdvice> all;
  for (const std::string& name : catalog->ListAllTables()) {
    AUTOCOMP_ASSIGN_OR_RETURN(std::vector<WriteAdvice> advice,
                              AnalyzeTable(catalog, name));
    all.insert(all.end(), std::make_move_iterator(advice.begin()),
               std::make_move_iterator(advice.end()));
  }
  std::sort(all.begin(), all.end(),
            [](const WriteAdvice& a, const WriteAdvice& b) {
              if (a.severity != b.severity) return a.severity > b.severity;
              if (a.table != b.table) return a.table < b.table;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  return all;
}

}  // namespace autocomp::core
