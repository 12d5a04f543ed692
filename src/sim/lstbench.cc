#include "sim/lstbench.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/random.h"
#include "core/act.h"
#include "core/observe.h"
#include "core/ranking.h"
#include "core/traits.h"
#include "core/triggers.h"
#include "engine/compaction_runner.h"
#include "sim/environment.h"
#include "workload/tpcds.h"
#include "workload/tpch.h"

namespace autocomp::sim {

const char* LstBenchWorkloadName(LstBenchWorkload workload) {
  switch (workload) {
    case LstBenchWorkload::kWp1:
      return "tpcds-wp1";
    case LstBenchWorkload::kWp3:
      return "tpcds-wp3";
    case LstBenchWorkload::kTpchLike:
      return "tpch";
  }
  return "unknown";
}

Result<double> LstBenchRunner::Run(const std::string& trait_name,
                                   double threshold) const {
  SimEnvironment env;
  Rng rng(config_.seed);
  const bool is_tpch = config_.workload == LstBenchWorkload::kTpchLike;
  const bool split_clusters = config_.workload == LstBenchWorkload::kWp3;

  // WP3 decouples clusters: writes go to a sidecar cluster and compaction
  // to the dedicated cluster; WP1/TPC-H run everything on the query
  // cluster (the contended configuration).
  engine::ClusterOptions sidecar_options;
  sidecar_options.executors = 7;  // the paper's 7-node write sidecar
  engine::Cluster sidecar("sidecar", sidecar_options, &env.clock());
  engine::QueryEngine write_engine(&sidecar, &env.catalog(), &env.clock());
  engine::CompactionRunner same_cluster_runner(&env.query_cluster(),
                                               &env.catalog(), &env.clock());
  engine::CompactionRunner* runner =
      split_clusters ? &env.compaction_runner() : &same_cluster_runner;
  engine::QueryEngine* writer =
      split_clusters ? &write_engine : &env.query_engine();

  // Load phase.
  workload::TpcdsOptions tpcds_options;
  tpcds_options.total_logical_bytes = config_.total_logical_bytes;
  tpcds_options.queries_per_pass = config_.queries_per_pass;
  workload::TpcdsWorkload tpcds(tpcds_options);
  if (is_tpch) {
    AUTOCOMP_RETURN_NOT_OK(workload::SetupTpchDatabase(
        &env.catalog(), &env.query_engine(), "tpch",
        config_.total_logical_bytes, engine::UntunedUserJobProfile(), 0));
  } else {
    AUTOCOMP_RETURN_NOT_OK(
        tpcds.Setup(&env.catalog(), &env.query_engine(), 0));
  }

  // Optimize-after-write hook (immediate mode, §5), when enabled.
  std::unique_ptr<core::OptimizeAfterWriteHook> hook;
  if (threshold >= 0) {
    std::vector<std::shared_ptr<const core::Trait>> traits;
    if (trait_name == "file_entropy_total") {
      traits.push_back(std::make_shared<core::TotalFileEntropyTrait>());
    } else if (trait_name == "file_count_reduction") {
      traits.push_back(std::make_shared<core::FileCountReductionTrait>());
    } else {
      return Status::InvalidArgument("unsupported trigger trait: " +
                                     trait_name);
    }
    core::OptimizeAfterWriteHook::ImmediateStages stages{
        std::make_shared<core::StatsCollector>(
            &env.catalog(), &env.control_plane(), &env.clock()),
        std::move(traits),
        core::ThresholdPolicy(trait_name, threshold),
        std::make_shared<core::SerialExecutor>(runner,
                                               &env.control_plane())};
    hook = std::make_unique<core::OptimizeAfterWriteHook>(std::move(stages));
  }

  const SimTime start = env.clock().Now();
  for (int session = 0; session < config_.sessions; ++session) {
    // --- Data modification phase.
    std::vector<engine::WriteSpec> writes;
    if (is_tpch) {
      for (const workload::TpchTableSpec& spec : workload::TpchTables()) {
        if (spec.partitioned) continue;
        engine::WriteSpec w;
        w.table = "tpch." + spec.name;
        w.kind = engine::WriteKind::kOverwrite;
        w.logical_bytes = static_cast<int64_t>(
            static_cast<double>(config_.total_logical_bytes) *
            spec.size_fraction * config_.tpch_overwrite_fraction);
        w.profile = engine::UntunedUserJobProfile();
        w.replace_fraction = 0.1;
        if (w.logical_bytes > 0) writes.push_back(std::move(w));
      }
    } else {
      writes = tpcds.MaintenanceWrites(config_.modify_fraction, &rng);
    }
    for (const engine::WriteSpec& w : writes) {
      AUTOCOMP_ASSIGN_OR_RETURN(engine::WriteResult written,
                                writer->ExecuteWrite(w, env.clock().Now()));
      // WP3's writes run on the sidecar concurrently with reads; on the
      // shared cluster they serialize with the rest of the session.
      if (!split_clusters) {
        env.clock().Advance(static_cast<SimTime>(written.total_seconds) + 1);
      }
      if (hook != nullptr) {
        const std::optional<std::string> partition =
            w.partitions.size() == 1
                ? std::optional<std::string>(w.partitions.front())
                : std::nullopt;
        auto compacted = hook->OnWrite(w.table, partition, env.clock().Now());
        AUTOCOMP_RETURN_NOT_OK(compacted.status());
        if (compacted->has_value() && (*compacted)->result.committed &&
            !split_clusters) {
          // Same-cluster compaction blocks the workload until it ends.
          env.clock().AdvanceTo(std::max(env.clock().Now(),
                                         (*compacted)->result.end_time));
        }
      }
    }
    // --- Read phase.
    auto run_read = [&](const std::string& table,
                        const std::optional<std::string>& partition)
        -> Status {
      AUTOCOMP_ASSIGN_OR_RETURN(
          engine::QueryResult result,
          env.query_engine().ExecuteRead(table, partition,
                                         env.clock().Now()));
      env.clock().Advance(static_cast<SimTime>(result.total_seconds) + 1);
      return Status::OK();
    };
    if (is_tpch) {
      for (const workload::TpchTableSpec& spec : workload::TpchTables()) {
        AUTOCOMP_RETURN_NOT_OK(run_read("tpch." + spec.name, std::nullopt));
      }
    } else {
      for (const auto& [table, partition] : tpcds.SingleUserQueries(&rng)) {
        AUTOCOMP_RETURN_NOT_OK(run_read(table, partition));
      }
    }
  }
  return static_cast<double>(env.clock().Now() - start);
}

}  // namespace autocomp::sim
