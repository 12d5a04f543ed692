#include "engine/compaction_runner.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>

#include "common/counter_rng.h"
#include "common/logging.h"
#include "fault/fault_injector.h"
#include "format/binpack.h"
#include "obs/trace.h"

namespace autocomp::engine {

namespace {
/// Several runners may share one catalog (same-cluster + dedicated-cluster
/// deployments); output names carry a distinct runner id.
std::atomic<int> g_runner_instances{0};
}  // namespace

const char* RewriteMovementName(RewriteMovement movement) {
  switch (movement) {
    case RewriteMovement::kPartial:
      return "partial";
    case RewriteMovement::kFull:
      return "full";
    case RewriteMovement::kMerge:
      return "merge";
  }
  return "unknown";
}

CompactionRunner::CompactionRunner(Cluster* cluster, catalog::Catalog* catalog,
                                   const Clock* clock,
                                   format::ColumnarFormatOptions format_options,
                                   int runner_id)
    : cluster_(cluster),
      catalog_(catalog),
      clock_(clock),
      format_(format_options),
      runner_id_(runner_id > 0 ? runner_id : ++g_runner_instances),
      path_stem_("/compact-r" + std::to_string(runner_id_) + "-") {
  assert(cluster_ != nullptr && catalog_ != nullptr && clock_ != nullptr);
}

Result<PendingCompaction> CompactionRunner::Prepare(
    const CompactionRequest& request, SimTime submit_time) {
  CompactionResult result;
  result.start_time = submit_time;
  result.end_time = submit_time;
  result.status = Status::OK();

  AUTOCOMP_ASSIGN_OR_RETURN(lst::Table handle,
                            catalog_->GetTable(request.table));
  // Pin the transaction (and its conflict-validation base) to the table
  // state as of Prepare: everything committed after this point competes
  // with the rewrite.
  AUTOCOMP_ASSIGN_OR_RETURN(lst::Transaction txn,
                            handle.NewTransaction(request.validation_mode));
  const lst::TableMetadataPtr meta = txn.base();

  uint64_t trace_span = 0;
  if (trace_ != nullptr && trace_->enabled(obs::TraceLevel::kFull)) {
    std::string detail = "table=" + request.table;
    if (request.partition) detail += ";partition=" + *request.partition;
    if (request.after_snapshot_id != 0) {
      detail += ";after_snapshot=" + std::to_string(request.after_snapshot_id);
    }
    trace_span = trace_->BeginSpan(obs::TraceLevel::kFull,
                                   obs::SpanCategory::kRunner, "runner.unit",
                                   submit_time, std::move(detail));
  }

  const int64_t target = request.target_file_size_bytes > 0
                             ? request.target_file_size_bytes
                             : meta->target_file_size_bytes();
  // kFull rewrites everything in scope: the cutoff stops excluding files.
  const int64_t small_cutoff =
      request.movement == RewriteMovement::kFull
          ? std::numeric_limits<int64_t>::max()
          : static_cast<int64_t>(std::llround(
                static_cast<double>(target) * request.small_file_threshold));

  // Select rewrite inputs. Data files below the cutoff are rewritten; in
  // partitions carrying MoR delete files, ALL data files are rewritten
  // (Iceberg can only drop a delete file once every data file it may
  // reference has been rewritten) and the delete files fold away.
  std::map<std::string, std::vector<lst::DataFile>> in_scope;
  meta->ForEachLiveFile(
      [&](const lst::DataFileRef& f) {
        if (f.added_snapshot_id <= request.after_snapshot_id &&
            request.after_snapshot_id != 0) {
          return;
        }
        in_scope[std::string(f.partition)].push_back(f.ToDataFile());
      },
      request.partition);
  std::vector<lst::DataFile> inputs;              // data files to rewrite
  std::vector<lst::DataFile> delete_inputs;       // MoR delta files to fold
  std::map<std::string, int64_t> deleted_records; // per partition
  for (const auto& [partition, files] : in_scope) {
    const bool has_deletes = std::any_of(
        files.begin(), files.end(), [](const lst::DataFile& f) {
          return f.content == lst::FileContent::kPositionDeletes;
        });
    for (const lst::DataFile& f : files) {
      if (f.content == lst::FileContent::kPositionDeletes) {
        delete_inputs.push_back(f);
        deleted_records[partition] += f.record_count;
      } else if (has_deletes || f.file_size_bytes < small_cutoff) {
        inputs.push_back(f);
      }
    }
  }
  if (inputs.size() + delete_inputs.size() < 2 || inputs.empty()) {
    // attempted=false: nothing worth rewriting.
    if (trace_span != 0) {
      trace_->EndSpan(trace_span, submit_time, 0, "outcome=skipped");
    }
    return PendingCompaction{request, std::move(txn), {}, std::move(result)};
  }
  result.attempted = true;

  // Per-partition survival ratio: the fraction of data rows the fold-in
  // keeps (1.0 when there are no delete files).
  std::map<std::string, double> survival;
  {
    std::map<std::string, int64_t> data_records;
    for (const lst::DataFile& f : inputs) {
      data_records[f.partition] += f.record_count;
    }
    for (const auto& [partition, records] : data_records) {
      const int64_t deleted = deleted_records.count(partition) > 0
                                  ? deleted_records.at(partition)
                                  : 0;
      survival[partition] =
          records > 0 ? std::max<double>(
                            0.0, static_cast<double>(records - deleted) /
                                     static_cast<double>(records))
                      : 1.0;
    }
  }

  // Logical bytes per data input (scaled by the fold-in survival);
  // merged outputs re-encode at peak efficiency, which is where
  // compaction's storage saving comes from.
  std::vector<int64_t> logical_sizes;
  logical_sizes.reserve(inputs.size());
  for (const lst::DataFile& f : inputs) {
    const double keep = survival.at(f.partition);
    logical_sizes.push_back(static_cast<int64_t>(std::llround(
        keep * std::max<int64_t>(
                   1, format_.LogicalBytesForStored(f.file_size_bytes)))));
    result.bytes_rewritten += f.file_size_bytes;
  }
  for (const lst::DataFile& f : delete_inputs) {
    result.bytes_rewritten += f.file_size_bytes;
  }
  result.files_rewritten =
      static_cast<int64_t>(inputs.size() + delete_inputs.size());

  // Plan outputs: pack logical bytes into bins that store ~target bytes.
  // Compaction never merges across partitions (§7), so pack per partition
  // and concatenate the plans.
  const int64_t bin_capacity =
      std::max<int64_t>(1, format_.LogicalBytesForStored(target));
  std::map<std::string, std::vector<size_t>> by_partition;
  for (size_t i = 0; i < inputs.size(); ++i) {
    by_partition[inputs[i].partition].push_back(i);
  }
  std::vector<format::Bin> bins;
  for (const auto& [partition, indices] : by_partition) {
    if (request.movement == RewriteMovement::kMerge) {
      // Tiering-style merge: one output run per partition, however large.
      format::Bin bin;
      bin.item_indices = indices;
      for (size_t i : indices) bin.total_bytes += logical_sizes[i];
      bins.push_back(std::move(bin));
      continue;
    }
    std::vector<int64_t> group_sizes;
    group_sizes.reserve(indices.size());
    for (size_t i : indices) group_sizes.push_back(logical_sizes[i]);
    for (format::Bin bin :
         format::FirstFitDecreasing(group_sizes, bin_capacity)) {
      for (size_t& idx : bin.item_indices) idx = indices[idx];
      bins.push_back(std::move(bin));
    }
  }

  // Read inputs (RPC accounting; timeouts add retry latency).
  storage::NameNode* dfs = catalog_->filesystem();
  double timeout_penalty = 0;
  for (const lst::DataFile& f : inputs) {
    if (dfs->Open(f.path).IsTimedOut()) {
      timeout_penalty += cluster_->options().timeout_retry_seconds;
      (void)dfs->Open(f.path);
    }
  }

  // Create output files. Replaced set covers both the rewritten data
  // files and the folded delete files. The whole write phase sits in a
  // bounded retry loop: an injected mid-job crash (fault site
  // engine.runner) abandons the partially written outputs — every created
  // file is deleted, leaving no orphans — then re-writes them after a
  // deterministic backoff, up to the policy's attempt budget.
  std::vector<lst::DataFile> outputs;
  std::vector<std::string> replaced;
  replaced.reserve(inputs.size() + delete_inputs.size());
  for (const lst::DataFile& f : inputs) replaced.push_back(f.path);
  for (const lst::DataFile& f : delete_inputs) replaced.push_back(f.path);
  for (int write_attempt = 1;; ++write_attempt) {
    for (const format::Bin& bin : bins) {
      int64_t logical = 0;
      int64_t records = 0;
      for (size_t idx : bin.item_indices) {
        const lst::DataFile& in = inputs[idx];
        logical += logical_sizes[idx];
        records += static_cast<int64_t>(std::llround(
            survival.at(in.partition) *
            static_cast<double>(in.record_count)));
      }
      if (logical <= 0) continue;  // everything in this bin was deleted
      lst::DataFile out;
      // All items in a bin share one partition by construction.
      const std::string& partition =
          inputs[bin.item_indices.front()].partition;
      std::string& path = out.path;
      const std::string& location = meta->location();
      path.reserve(location.size() + partition.size() + path_stem_.size() +
                   32);
      path.assign(location);
      if (!partition.empty()) {
        path += '/';
        path += partition;
      }
      path += path_stem_;
      path += std::to_string(++file_counter_);
      path += ".parquet";
      out.partition = partition;
      out.clustered = request.cluster_output;
      out.file_size_bytes = format_.StoredBytesFor(logical);
      out.record_count = records;
      const Status st =
          dfs->CreateFile(out.path, out.file_size_bytes, out.record_count);
      if (!st.ok()) {
        // Quota/namespace failures are not transient: clean up and give
        // the unit up rather than burning retries to fail again.
        for (const lst::DataFile& created : outputs) {
          (void)dfs->DeleteFile(created.path);
        }
        result.status = st;
        result.attempted = false;
        result.abandoned = true;
        result.bytes_produced = 0;
        ++total_abandoned_;
        if (trace_span != 0) {
          trace_->EndSpan(trace_span, submit_time, 0,
                          "outcome=abandoned;reason=create_failed");
        }
        return PendingCompaction{request, std::move(txn), {},
                                 std::move(result)};
      }
      result.bytes_produced += out.file_size_bytes;
      outputs.push_back(std::move(out));
    }
    const fault::FaultKind crash =
        fault_ == nullptr
            ? fault::FaultKind::kNone
            : fault_->Arm(fault::kSiteEngineRunner, request.table);
    if (crash != fault::FaultKind::kRunnerCrash) break;
    // Mid-job crash: the partial outputs are orphans — delete them all.
    for (const lst::DataFile& created : outputs) {
      (void)dfs->DeleteFile(created.path);
    }
    outputs.clear();
    result.bytes_produced = 0;
    if (write_attempt >= retry_policy_.max_attempts) {
      result.status = fault::FaultInjector::ToStatus(
          crash, fault::kSiteEngineRunner, request.table);
      result.attempted = false;
      result.abandoned = true;
      ++total_abandoned_;
      if (trace_span != 0) {
        trace_->EndSpan(trace_span, submit_time, 0,
                        "outcome=abandoned;reason=crash_retries_exhausted");
      }
      return PendingCompaction{request, std::move(txn), {},
                               std::move(result)};
    }
    const double backoff = retry_policy_.BackoffSeconds(
        CounterRng::Mix(CounterRng::HashString(request.table)) ^
            static_cast<uint64_t>(submit_time),
        write_attempt);
    timeout_penalty += backoff;
    result.backoff_seconds += backoff;
    ++total_retries_;
    if (trace_ != nullptr && trace_->enabled(obs::TraceLevel::kFull)) {
      trace_->Instant(obs::TraceLevel::kFull, obs::SpanCategory::kRunner,
                      "runner.crash_retry", submit_time,
                      "table=" + request.table + ";attempt=" +
                          std::to_string(write_attempt),
                      backoff);
    }
  }
  result.files_produced = static_cast<int64_t>(outputs.size());

  const Status staged = txn.RewriteFiles(replaced, outputs);
  if (!staged.ok()) {
    result.status = staged;
    result.attempted = false;
    if (trace_span != 0) {
      trace_->EndSpan(trace_span, submit_time, 0, "outcome=stage_failed");
    }
    return PendingCompaction{request, std::move(txn), {}, std::move(result)};
  }

  // One compaction work unit runs as one Spark job on one executor:
  // wall time = (bytes read + bytes written) / RewriteBytesPerHour.
  // Concurrent units from other tables occupy the cluster's remaining
  // executors; excess units queue. The measured work includes writing the
  // merged outputs — overhead the §4.2 estimator (input bytes only) does
  // not model, which is why production observed cost underestimation
  // (§7: "we estimated ... 108 TBHr ... actually consumed 129").
  const double layout_factor =
      request.cluster_output ? cluster_->options().cluster_write_multiplier
                             : 1.0;
  const double wall_seconds =
      layout_factor *
      static_cast<double>(result.bytes_rewritten + result.bytes_produced) /
      (cluster_->options().rewrite_bytes_per_hour / 3600.0);
  const int job_slots = cluster_->options().cores_per_executor;
  std::vector<double> tasks(static_cast<size_t>(job_slots), wall_seconds);
  const TaskBagResult bag = cluster_->RunTasks(submit_time, tasks);

  result.duration_seconds =
      static_cast<double>(bag.end_time - submit_time) + timeout_penalty;
  result.end_time =
      bag.end_time + static_cast<SimTime>(std::llround(timeout_penalty));
  // Measured cost over the total work (read + write), at the §4.2 rate;
  // clustering rewrites pay the extra layout passes.
  result.gb_hours =
      layout_factor * cluster_->total_memory_gb() *
      (static_cast<double>(result.bytes_rewritten + result.bytes_produced) /
       cluster_->options().rewrite_bytes_per_hour);
  return PendingCompaction{request, std::move(txn), std::move(outputs),
                           std::move(result), trace_span};
}

CompactionResult CompactionRunner::Finalize(PendingCompaction&& pending) {
  CompactionResult result = std::move(pending.result);
  if (!result.attempted) return result;

  lst::Transaction& txn = pending.transaction;
  // Backoff stream keyed by (table, submit time): unique per unit within
  // a run, identical across replays regardless of shard/pool layout.
  const uint64_t backoff_key =
      CounterRng::Mix(CounterRng::HashString(pending.request.table)) ^
      static_cast<uint64_t>(result.start_time);
  Status failure;
  for (int attempt = 1;; ++attempt) {
    auto committed = txn.Commit();
    if (committed.ok()) {
      result.committed = true;
      result.snapshot_id = committed->snapshot_id;
      ++total_committed_;
      if (pending.trace_span != 0) {
        trace_->EndSpan(pending.trace_span, result.end_time, result.gb_hours,
                        "outcome=committed;snapshot=" +
                            std::to_string(result.snapshot_id));
      }
      return result;
    }
    failure = committed.status();
    // Structured conflict classification decides retry vs abandon: only
    // a CAS race (organic or injected) can converge on rebase; every
    // validation rejection is terminal.
    bool retry =
        txn.last_conflict().retryable() && attempt < retry_policy_.max_attempts;
    if (retry) {
      // Conflict-aware re-validation: before paying for another attempt,
      // confirm the inputs are still live under the current version — a
      // concurrent rewrite may have consumed them, making the next
      // attempt a guaranteed (and costly) terminal conflict.
      auto current = catalog_->LoadTable(pending.request.table);
      if (!current.ok()) {
        retry = false;
      } else {
        for (const std::string& path : txn.replaced_paths()) {
          if (!(*current)->IsLive(path)) {
            retry = false;
            break;
          }
        }
      }
    }
    if (!retry) break;
    // Deterministic exponential backoff. Charged to duration (the unit
    // took longer) but NOT to end_time: the retried commit lands at the
    // same simulated instant, so the end state converges with a
    // fault-free run (the differential tests' invariant).
    const double backoff = retry_policy_.BackoffSeconds(backoff_key, attempt);
    result.backoff_seconds += backoff;
    result.duration_seconds += backoff;
    ++result.commit_retries;
    ++total_retries_;
    if (trace_ != nullptr && trace_->enabled(obs::TraceLevel::kFull)) {
      trace_->Instant(obs::TraceLevel::kFull, obs::SpanCategory::kRunner,
                      "runner.commit_retry", result.end_time,
                      "table=" + pending.request.table + ";attempt=" +
                          std::to_string(attempt),
                      backoff);
    }
  }
  // Clean up outputs; the rewrite is lost.
  storage::NameNode* dfs = catalog_->filesystem();
  for (const lst::DataFile& created : pending.outputs) {
    (void)dfs->DeleteFile(created.path);
  }
  result.conflict = failure.IsCommitConflict();
  result.status = failure;
  result.abandoned = true;
  ++total_abandoned_;
  if (result.conflict) ++total_conflicts_;
  if (pending.trace_span != 0) {
    std::string outcome =
        result.conflict ? std::string("outcome=conflict;kind=") +
                              lst::ConflictKindName(txn.last_conflict().kind)
                        : std::string("outcome=abandoned");
    trace_->EndSpan(pending.trace_span, result.end_time, result.gb_hours,
                    std::move(outcome));
  }
  return result;
}

CompactionResult CompactionRunner::Abandon(PendingCompaction&& pending,
                                           SimTime at) {
  CompactionResult result = std::move(pending.result);
  if (!result.attempted) return result;
  // Delete the staged outputs; the dropped transaction needs no further
  // cleanup (it never committed, so nothing references them).
  storage::NameNode* dfs = catalog_->filesystem();
  for (const lst::DataFile& created : pending.outputs) {
    (void)dfs->DeleteFile(created.path);
  }
  result.committed = false;
  result.abandoned = true;
  result.end_time = at;
  result.status = Status::Cancelled("compaction preempted");
  ++total_abandoned_;
  if (pending.trace_span != 0) {
    trace_->EndSpan(pending.trace_span, at, result.gb_hours,
                    "outcome=preempted");
  }
  return result;
}

Result<CompactionResult> CompactionRunner::Run(
    const CompactionRequest& request, SimTime submit_time) {
  AUTOCOMP_ASSIGN_OR_RETURN(PendingCompaction pending,
                            Prepare(request, submit_time));
  return Finalize(std::move(pending));
}

}  // namespace autocomp::engine
