/// \file environment.h
/// \brief One-stop construction of a simulated deployment: storage,
/// catalog, control plane, query and compaction clusters (Figure 5's
/// cluster integration).

#pragma once

#include <memory>

#include "catalog/catalog.h"
#include "catalog/control_plane.h"
#include "common/clock.h"
#include "engine/cluster.h"
#include "engine/compaction_runner.h"
#include "engine/query_engine.h"
#include "fault/fault_injector.h"
#include "fault/retry_policy.h"
#include "storage/namenode.h"

namespace autocomp::sim {

/// \brief Deployment sizing, defaulting to the paper's §6 setup: a
/// 15-executor query cluster and a 3-executor compaction cluster.
struct EnvironmentOptions {
  storage::NameNodeOptions namenode = {};
  engine::ClusterOptions query_cluster = {};      // 15 executors default
  engine::ClusterOptions compaction_cluster = {}; // overridden to 3 below
  engine::QueryEngineOptions engine = {};
  /// Catalog behaviour (metadata-footprint persistence + retention).
  /// With persist_metadata on, the retention service also reaps the
  /// manifest objects orphaned by snapshot expiry, so long-horizon
  /// lineages stop accumulating storage-side metadata.
  catalog::CatalogOptions catalog = {};
  uint64_t seed = 7;
  /// Pinned compaction-runner id (0 = process-wide counter). See
  /// QueryEngineOptions::writer_id for why the shard-parallel fleet
  /// driver pins these: file names must not depend on how many
  /// environments the process constructed before this one.
  int runner_id = 0;
  /// Fault injection for this deployment. Disabled by default; when
  /// enabled, the environment's injector is wired onto the NameNode, the
  /// catalog commit path and the compaction runner. The injector seed
  /// defaults to `fault.seed`; the fleet driver overrides it per lane so
  /// injections replay bit-identically across shard counts.
  fault::FaultInjectorOptions fault = {};
  /// Retry budget + backoff shape for the compaction runner.
  fault::RetryPolicy retry = {};
  /// Trace recorder observing this deployment (not owned; must outlive
  /// the environment). When set, it is wired onto the NameNode, the
  /// catalog commit path, the compaction runner, and the fault
  /// injector — regardless of its level, so a level-kOff recorder
  /// exercises every site's guard (IdleHookTest counts that it is never
  /// called).
  obs::TraceRecorder* trace = nullptr;

  EnvironmentOptions() {
    query_cluster.executors = 15;
    compaction_cluster.executors = 3;
    // A 3-executor Spark job rewrites on the order of ~48 GiB per
    // hour; this makes large table-scope rewrites take minutes of
    // simulated time, opening the race window where user writes cause
    // cluster-side conflicts (Table 1).
    compaction_cluster.rewrite_bytes_per_hour = 48.0 * kGiB;
  }
};

/// \brief Owns all long-lived simulation components and wires them up.
class SimEnvironment {
 public:
  explicit SimEnvironment(EnvironmentOptions options = {});

  SimulatedClock& clock() { return clock_; }
  /// The deployment's NameNode: every file RPC goes through it.
  storage::NameNode& dfs() { return *dfs_; }
  catalog::Catalog& catalog() { return *catalog_; }
  catalog::ControlPlane& control_plane() { return *control_plane_; }
  engine::Cluster& query_cluster() { return *query_cluster_; }
  engine::Cluster& compaction_cluster() { return *compaction_cluster_; }
  engine::QueryEngine& query_engine() { return *query_engine_; }
  /// Runner bound to the dedicated compaction cluster.
  engine::CompactionRunner& compaction_runner() { return *compaction_runner_; }
  /// The deployment's fault injector (always constructed; a disabled
  /// injector is a no-op on every site).
  fault::FaultInjector& fault_injector() { return *fault_injector_; }

  /// Total data files currently in storage (the Figure 6/10c metric).
  int64_t TotalFileCount() const;

  const EnvironmentOptions& options() const { return options_; }

 private:
  EnvironmentOptions options_;
  SimulatedClock clock_;
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  std::unique_ptr<storage::NameNode> dfs_;
  std::unique_ptr<catalog::Catalog> catalog_;
  std::unique_ptr<catalog::ControlPlane> control_plane_;
  std::unique_ptr<engine::Cluster> query_cluster_;
  std::unique_ptr<engine::Cluster> compaction_cluster_;
  std::unique_ptr<engine::QueryEngine> query_engine_;
  std::unique_ptr<engine::CompactionRunner> compaction_runner_;
};

}  // namespace autocomp::sim
