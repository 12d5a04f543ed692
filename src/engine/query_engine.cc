#include "engine/query_engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <string_view>

#include "common/logging.h"

namespace autocomp::engine {

namespace {
/// Process-wide writer-instance counter: several engines may share one
/// catalog (e.g. a sidecar write cluster), so file names carry a distinct
/// writer id to stay collision-free.
std::atomic<int> g_writer_instances{0};
}  // namespace

QueryEngine::QueryEngine(Cluster* cluster, catalog::Catalog* catalog,
                         const Clock* clock, QueryEngineOptions options)
    : cluster_(cluster),
      catalog_(catalog),
      clock_(clock),
      options_(options),
      format_(options.format_options),
      rng_(options.seed),
      writer_id_(options.writer_id > 0 ? options.writer_id
                                       : ++g_writer_instances) {
  assert(cluster_ != nullptr && catalog_ != nullptr && clock_ != nullptr);
}

std::string QueryEngine::NewFilePath(const lst::TableMetadata& meta,
                                     const std::string& partition,
                                     const char* op) {
  std::string dir = meta.location();
  if (!partition.empty()) dir += "/" + partition;
  return dir + "/" + op + "-w" + std::to_string(writer_id_) + "-" +
         std::to_string(++file_counter_) + ".parquet";
}

Result<QueryResult> QueryEngine::ExecuteRead(
    const std::string& table, const std::optional<std::string>& partition,
    SimTime submit_time, double selectivity) {
  selectivity = std::clamp(selectivity, 0.05, 1.0);
  AUTOCOMP_ASSIGN_OR_RETURN(lst::Table handle, catalog_->GetTable(table));
  AUTOCOMP_ASSIGN_OR_RETURN(lst::ScanPlan plan, handle.PlanScan(partition));
  catalog_->RecordTableRead(table);

  QueryResult result;
  result.submit_time = submit_time;
  const ClusterOptions& copts = cluster_->options();
  result.planning_seconds =
      copts.plan_seconds_per_manifest * static_cast<double>(
          plan.manifests_scanned) +
      copts.plan_seconds_per_file * static_cast<double>(plan.files.size());

  // Open every data file; under NameNode overload some opens time out and
  // the client pays a retry penalty. The NameNode takes whole paths, so
  // each is rendered into one reused buffer.
  double timeout_penalty = 0;
  storage::NameNode* dfs = catalog_->filesystem();
  std::string path;
  for (const lst::DataFileRef& f : plan.files) {
    f.path.AssignTo(&path);
    if (dfs->Open(path).IsTimedOut()) {
      ++result.open_timeouts;
      timeout_penalty += copts.timeout_retry_seconds;
      if (dfs->Open(path).IsTimedOut()) {  // client retry
        ++result.open_timeouts;
        timeout_penalty += copts.timeout_retry_seconds;
      }
    }
  }

  // One scan task per split; small files pay the open overhead per file,
  // and MoR delete files add a merge penalty on top of their own read.
  std::vector<double> tasks;
  tasks.reserve(plan.files.size());
  for (const lst::DataFileRef& f : plan.files) {
    // Clustered files support row-group skipping: only the selected
    // fraction of the file's bytes is read.
    const int64_t effective_bytes =
        f.clustered ? std::max<int64_t>(
                          1, static_cast<int64_t>(std::llround(
                                 selectivity *
                                 static_cast<double>(f.file_size_bytes))))
                    : f.file_size_bytes;
    int64_t remaining = std::max<int64_t>(1, effective_bytes);
    bool first_split = true;
    while (remaining > 0) {
      const int64_t chunk = std::min(remaining, copts.split_bytes);
      double secs = static_cast<double>(chunk) / copts.scan_bytes_per_second;
      if (first_split) {
        secs += copts.open_seconds_per_file;
        if (f.content == lst::FileContent::kPositionDeletes) {
          secs += copts.mor_merge_seconds_per_delete_file;
        }
        first_split = false;
      }
      tasks.push_back(secs);
      remaining -= chunk;
    }
    result.bytes_scanned += effective_bytes;
  }
  result.files_scanned = static_cast<int64_t>(plan.files.size());

  const SimTime exec_submit =
      submit_time + static_cast<SimTime>(std::llround(
                        result.planning_seconds + timeout_penalty));
  const TaskBagResult bag = cluster_->RunTasks(exec_submit, tasks);
  result.queue_wait_seconds = bag.queue_wait_seconds;
  result.execution_seconds =
      static_cast<double>(bag.end_time - exec_submit) + timeout_penalty;
  result.total_seconds =
      result.planning_seconds + result.execution_seconds;
  result.gb_hours = cluster_->GbHoursFor(bag.busy_seconds);
  return result;
}

Result<WriteResult> QueryEngine::ExecuteWrite(const WriteSpec& spec,
                                              SimTime submit_time) {
  AUTOCOMP_ASSIGN_OR_RETURN(lst::Table handle, catalog_->GetTable(spec.table));
  AUTOCOMP_ASSIGN_OR_RETURN(lst::TableMetadataPtr meta, handle.Metadata());

  WriteResult result;
  result.submit_time = submit_time;

  // Plan output files (empty for pure CoW deletes). MoR deletes write
  // small positional delta files — one per touched partition per task
  // flush — whose logical payload is tiny relative to the rows they mask.
  std::vector<PlannedFile> planned;
  if (spec.kind != WriteKind::kDelete) {
    planned = PlanWriteFiles(spec.logical_bytes, spec.partitions, spec.profile,
                             format_, &rng_);
  }

  // Choose replaced files for overwrite/delete: a deterministic sample of
  // live files in the touched partitions. MoR deletes replace nothing.
  std::vector<std::string> replaced;
  if (spec.kind != WriteKind::kAppend && spec.kind != WriteKind::kMorDelete) {
    // Only the paths are needed: views of `meta`'s manifests, copied
    // only for the files the sample picks.
    std::vector<lst::PathRef> pool;
    const auto collect = [&pool](const lst::DataFileRef& f) {
      pool.push_back(f.path);
    };
    if (spec.partitions.empty()) {
      meta->ForEachLiveFile(collect);
    } else {
      for (const std::string& p : spec.partitions) {
        meta->ForEachLiveFile(collect, p);
      }
    }
    const auto want = static_cast<size_t>(std::llround(
        static_cast<double>(pool.size()) * spec.replace_fraction));
    for (size_t i = 0; i < pool.size() && replaced.size() < want; ++i) {
      if (rng_.Bernoulli(spec.replace_fraction * 2)) {
        replaced.push_back(pool[i].str());
      }
    }
    if (replaced.empty() && !pool.empty() && want > 0) {
      replaced.push_back(pool.front().str());
    }
  }

  // Create the planned files in storage.
  std::vector<lst::DataFile> added;
  added.reserve(planned.size());
  storage::NameNode* dfs = catalog_->filesystem();
  const bool mor = spec.kind == WriteKind::kMorDelete;
  for (const PlannedFile& pf : planned) {
    lst::DataFile df;
    df.path = NewFilePath(*meta, pf.partition, mor ? "delete" : "part");
    df.partition = pf.partition;
    df.content =
        mor ? lst::FileContent::kPositionDeletes : lst::FileContent::kData;
    df.file_size_bytes = pf.stored_bytes;
    df.record_count = pf.record_count;
    const Status st =
        dfs->CreateFile(df.path, df.file_size_bytes, df.record_count);
    if (!st.ok()) {
      // Quota breach or duplicate: abort the job, clean up partial output.
      for (const lst::DataFile& created : added) {
        (void)dfs->DeleteFile(created.path);
      }
      return st;
    }
    result.bytes_written += df.file_size_bytes;
    added.push_back(std::move(df));
  }

  // Stage and commit the transaction.
  AUTOCOMP_ASSIGN_OR_RETURN(lst::Transaction txn,
                            handle.NewTransaction(options_.validation_mode));
  switch (spec.kind) {
    case WriteKind::kAppend:
    case WriteKind::kMorDelete:  // delta files are appended, never replace
      AUTOCOMP_RETURN_NOT_OK(txn.Append(added));
      break;
    case WriteKind::kOverwrite:
      AUTOCOMP_RETURN_NOT_OK(txn.Overwrite(replaced, added));
      break;
    case WriteKind::kDelete:
      if (replaced.empty()) {
        return Status::FailedPrecondition("nothing to delete in " +
                                          spec.table);
      }
      AUTOCOMP_RETURN_NOT_OK(txn.DeleteFiles(replaced));
      break;
  }

  // Cost model: write bytes at amplified scan cost across tasks.
  std::vector<double> tasks;
  tasks.reserve(added.size() + 1);
  const ClusterOptions& copts = cluster_->options();
  for (const lst::DataFile& df : added) {
    tasks.push_back(copts.open_seconds_per_file +
                    options_.write_amplification *
                        static_cast<double>(df.file_size_bytes) /
                        copts.scan_bytes_per_second);
  }
  if (tasks.empty()) tasks.push_back(copts.open_seconds_per_file);
  const TaskBagResult bag = cluster_->RunTasks(submit_time, tasks);

  auto committed = txn.CommitWithRetries(spec.max_commit_retries);
  if (!committed.ok()) {
    if (committed.status().IsCommitConflict()) {
      // Lost the race: the job fails client-side and its output files are
      // garbage-collected.
      for (const lst::DataFile& created : added) {
        (void)dfs->DeleteFile(created.path);
      }
      result.conflict_failed = true;
      result.commit_retries = spec.max_commit_retries;
      result.total_seconds = static_cast<double>(bag.end_time - submit_time);
      result.gb_hours = cluster_->GbHoursFor(bag.busy_seconds);
      return result;
    }
    return committed.status();
  }
  result.commit_retries = committed->retries;
  result.snapshot_id = committed->snapshot_id;
  result.files_written = static_cast<int64_t>(added.size());
  result.files_replaced = static_cast<int64_t>(replaced.size());
  result.total_seconds = static_cast<double>(bag.end_time - submit_time) +
                         3.0 * committed->retries;  // retry round-trips
  result.gb_hours = cluster_->GbHoursFor(bag.busy_seconds);
  return result;
}

}  // namespace autocomp::engine
