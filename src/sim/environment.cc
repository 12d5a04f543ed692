#include "sim/environment.h"

namespace autocomp::sim {

SimEnvironment::SimEnvironment(EnvironmentOptions options)
    : options_(options), clock_(0) {
  fault_injector_ = std::make_unique<fault::FaultInjector>(options_.fault);
  storage::NameNodeOptions nn = options_.namenode;
  nn.seed = options_.seed * 31 + 5;
  dfs_ = std::make_unique<storage::NameNode>(&clock_, nn);
  catalog_ =
      std::make_unique<catalog::Catalog>(&clock_, dfs_.get(), options_.catalog);
  if (options_.fault.enabled) {
    dfs_->SetFaultInjector(fault_injector_.get());
    catalog_->SetFaultInjector(fault_injector_.get());
  }
  control_plane_ = std::make_unique<catalog::ControlPlane>(catalog_.get());
  query_cluster_ = std::make_unique<engine::Cluster>(
      "query", options_.query_cluster, &clock_);
  compaction_cluster_ = std::make_unique<engine::Cluster>(
      "compaction", options_.compaction_cluster, &clock_);
  engine::QueryEngineOptions eng = options_.engine;
  eng.seed = options_.seed * 101 + 13;
  query_engine_ = std::make_unique<engine::QueryEngine>(
      query_cluster_.get(), catalog_.get(), &clock_, eng);
  compaction_runner_ = std::make_unique<engine::CompactionRunner>(
      compaction_cluster_.get(), catalog_.get(), &clock_,
      eng.format_options, options_.runner_id);
  compaction_runner_->set_retry_policy(options_.retry);
  if (options_.fault.enabled) {
    compaction_runner_->SetFaultInjector(fault_injector_.get());
  }
  if (options_.trace != nullptr) {
    dfs_->SetTraceRecorder(options_.trace);
    catalog_->SetTraceRecorder(options_.trace);
    compaction_runner_->SetTraceRecorder(options_.trace);
    fault_injector_->SetTrace(options_.trace, &clock_);
  }
}

int64_t SimEnvironment::TotalFileCount() const {
  return dfs_->AggregateStats().file_count;
}

}  // namespace autocomp::sim
