/// \file autotune_thresholds.cpp
/// \brief Example: auto-tuning a compaction trigger threshold (paper
/// §6.3) with the CFO optimizer.
///
/// Wraps a small workload (fragmenting writes + scans + an
/// optimize-after-write trigger) into an objective function and lets the
/// tuner find the small-file-count threshold minimizing end-to-end time.
///
///   ./autotune_thresholds

#include <cstdio>

#include "common/logging.h"
#include "core/act.h"
#include "core/observe.h"
#include "core/ranking.h"
#include "core/traits.h"
#include "core/triggers.h"
#include "sim/environment.h"
#include "tuning/optimizer.h"
#include "workload/tpch.h"

using namespace autocomp;

namespace {

/// One experiment: sessions of (fragmenting write -> hook -> scans) on a
/// fresh environment. Returns total simulated duration in seconds.
Result<double> RunOnce(double threshold) {
  sim::SimEnvironment env;
  AUTOCOMP_RETURN_NOT_OK(workload::SetupTpchDatabase(
      &env.catalog(), &env.query_engine(), "db", 8 * kGiB,
      engine::UntunedUserJobProfile(), 0));

  core::OptimizeAfterWriteHook::ImmediateStages stages{
      std::make_shared<core::StatsCollector>(&env.catalog(),
                                             &env.control_plane(),
                                             &env.clock()),
      {std::make_shared<core::FileCountReductionTrait>()},
      core::ThresholdPolicy("file_count_reduction", threshold),
      std::make_shared<core::SerialExecutor>(&env.compaction_runner(),
                                             &env.control_plane())};
  core::OptimizeAfterWriteHook hook(std::move(stages));

  Rng rng(3);
  const SimTime start = env.clock().Now();
  for (int session = 0; session < 3; ++session) {
    engine::WriteSpec write;
    write.table = "db.lineitem";
    write.kind = engine::WriteKind::kAppend;
    write.logical_bytes = 512 * kMiB;
    write.profile = engine::UntunedUserJobProfile();
    write.partitions = workload::LineitemMonthPartitions();
    auto wrote = env.query_engine().ExecuteWrite(write, env.clock().Now());
    AUTOCOMP_RETURN_NOT_OK(wrote.status());
    env.clock().Advance(static_cast<SimTime>(wrote->total_seconds) + 1);

    auto compacted = hook.OnWrite("db.lineitem", std::nullopt,
                                  env.clock().Now());
    AUTOCOMP_RETURN_NOT_OK(compacted.status());
    if (compacted->has_value() && (*compacted)->result.committed) {
      env.clock().AdvanceTo(
          std::max(env.clock().Now(), (*compacted)->result.end_time));
    }

    for (int q = 0; q < 40; ++q) {
      auto read = env.query_engine().ExecuteRead("db.lineitem", std::nullopt,
                                                 env.clock().Now());
      AUTOCOMP_RETURN_NOT_OK(read.status());
      env.clock().Advance(static_cast<SimTime>(read->total_seconds) + 1);
    }
  }
  return static_cast<double>(env.clock().Now() - start);
}

}  // namespace

int main() {
  Logger::set_threshold(LogLevel::kInfo);
  std::printf("tuning the small-file-count trigger threshold...\n");

  auto baseline = RunOnce(1e18);  // threshold so high it never triggers
  if (!baseline.ok()) return 1;
  std::printf("no-compaction baseline: %.0f s\n\n", *baseline);

  tuning::CfoOptimizer optimizer(
      {{"small_file_count_threshold", 10, 50000, /*log_scale=*/true}}, 9);
  tuning::Tuner tuner(&optimizer, [](const tuning::ParamVector& p) {
    return RunOnce(p[0]);
  });
  auto trials = tuner.Run(10);
  if (!trials.ok()) {
    std::fprintf(stderr, "tuning failed: %s\n",
                 trials.status().ToString().c_str());
    return 1;
  }
  std::printf("%5s %12s %12s\n", "iter", "threshold", "duration(s)");
  for (size_t i = 0; i < trials->size(); ++i) {
    std::printf("%5zu %12.1f %12.0f\n", i + 1, (*trials)[i].params[0],
                (*trials)[i].objective);
  }
  auto best = tuner.Best();
  std::printf("\nbest threshold %.1f -> %.0f s (%.2fx of baseline)\n",
              best->params[0], best->objective, best->objective / *baseline);
  return 0;
}
