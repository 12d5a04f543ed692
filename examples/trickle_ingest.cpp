/// \file trickle_ingest.cpp
/// \brief Example: a managed trickle-ingestion pipeline with an
/// optimize-after-write hook (paper §2 + §5).
///
/// Raw events land every five minutes as small checkpoint files. An
/// optimize-after-write hook in *notify* mode records which partitions
/// changed; a decoupled AutoComp service periodically drains those
/// notifications and compacts just the affected candidates — the
/// resource-controlled variant of post-write compaction.
///
///   ./trickle_ingest

#include <cstdio>

#include "common/logging.h"
#include "core/act.h"
#include "core/observe.h"
#include "core/ranking.h"
#include "core/traits.h"
#include "core/triggers.h"
#include "sim/environment.h"
#include "workload/trickle.h"

using namespace autocomp;

int main() {
  Logger::set_threshold(LogLevel::kInfo);
  sim::SimEnvironment env;

  workload::TrickleOptions options;
  options.num_topics = 2;
  options.duration = 4 * kHour;
  options.bytes_per_flush = 128 * kMiB;
  workload::TrickleIngestion trickle(options);
  if (!trickle.Setup(&env.catalog(), 0).ok()) return 1;

  // A notify-mode hook: the engine's write path pings it after every
  // commit; candidates queue up instead of compacting immediately.
  core::OptimizeAfterWriteHook hook;

  // The decoupled service drains the hook's queue on its own schedule.
  core::AutoCompPipeline::Stages stages;
  stages.generator = std::make_shared<core::TableScopeGenerator>();  // unused
  stages.collector = std::make_shared<core::StatsCollector>(
      &env.catalog(), &env.control_plane(), &env.clock());
  stages.traits = {std::make_shared<core::FileCountReductionTrait>()};
  stages.ranker =
      std::make_shared<core::SingleTraitRanker>("file_count_reduction");
  stages.selector = std::make_shared<core::FixedKSelector>(100);
  stages.executor = std::make_shared<core::SerialExecutor>(
      &env.compaction_runner(), &env.control_plane());
  core::AutoCompPipeline pipeline(std::move(stages), &env.catalog(),
                                  &env.clock());

  SimTime next_service_run = kHour;
  for (const workload::QueryEvent& e : trickle.GenerateEvents()) {
    env.clock().AdvanceTo(e.time);
    auto write = env.query_engine().ExecuteWrite(e.write, e.time);
    if (!write.ok()) {
      std::fprintf(stderr, "write failed: %s\n",
                   write.status().ToString().c_str());
      return 1;
    }
    // Push notification: this partition just changed.
    (void)hook.OnWrite(e.write.table, e.write.partitions.front(), e.time);

    if (e.time >= next_service_run) {
      // Pull side: compact exactly what changed since the last run.
      std::vector<core::Candidate> changed = hook.DrainNotifications();
      auto report = pipeline.RunForCandidates(changed);
      if (!report.ok()) return 1;
      std::printf(
          "[t=%s] service run: %zu notified candidates, %lld compacted, "
          "%lld files removed, %.2f GBHr\n",
          FormatDuration(e.time).c_str(), changed.size(),
          static_cast<long long>(report->committed_count()),
          static_cast<long long>(report->files_reduced()),
          report->actual_gb_hours());
      next_service_run += kHour;
    }
  }

  for (const std::string& table : trickle.TableNames()) {
    auto meta = env.catalog().LoadTable(table);
    std::printf("%s: %lld live files, %s\n", table.c_str(),
                static_cast<long long>((*meta)->live_file_count()),
                FormatBytes((*meta)->live_bytes()).c_str());
  }
  return 0;
}
