#include "benchmarks/fleet_experiment.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "core/act.h"
#include "core/observe.h"
#include "core/ranking.h"
#include "core/traits.h"

namespace autocomp::bench {

namespace {

SizeHistogram FleetHistogram(catalog::Catalog* catalog) {
  SizeHistogram histogram = SizeHistogram::ForFileSizes();
  for (const std::string& name : catalog->ListAllTables()) {
    auto meta = catalog->LoadTable(name);
    if (!meta.ok()) continue;
    (*meta)->ForEachLiveFile(
        [&](const lst::DataFileRef& f) { histogram.Add(f.file_size_bytes); });
  }
  return histogram;
}

/// Chooses the `k` tables with the most small files right now (how the
/// fixed manual set was picked, §7: "chosen because of their
/// susceptibility to high fragmentation").
std::vector<std::string> PickManualSet(catalog::Catalog* catalog,
                                       const Clock* clock, int64_t k) {
  core::TableScopeGenerator generator;
  core::StatsCollector collector(catalog, nullptr, clock);
  auto pool = generator.Generate(catalog);
  AUTOCOMP_CHECK(pool.ok());
  auto observed = collector.CollectAll(*pool);
  AUTOCOMP_CHECK(observed.ok());
  auto traited = core::ComputeTraits(
      *observed, {std::make_shared<core::FileCountReductionTrait>()});
  auto ranked = core::SingleTraitRanker("file_count_reduction").Rank(traited);
  std::vector<std::string> out;
  for (const auto& sc : ranked) {
    if (static_cast<int64_t>(out.size()) >= k) break;
    out.push_back(sc.candidate().table);
  }
  return out;
}

}  // namespace

std::vector<FleetDayStats> RunFleetExperiment(
    const std::vector<FleetPhase>& phases,
    std::vector<std::pair<std::string, SizeHistogram>>* histograms_out,
    workload::FleetOptions fleet_options) {
  sim::SimEnvironment env;
  workload::FleetWorkload fleet(fleet_options);
  AUTOCOMP_CHECK(fleet
                     .Setup(&env.catalog(), &env.query_engine(),
                            &env.control_plane(), 0)
                     .ok());

  sim::MetricsRecorder metrics;
  sim::DriverOptions driver_options;
  driver_options.sample_interval = 4 * kHour;
  driver_options.retention_interval = kDay;
  sim::EventDriver driver(&env, &metrics, driver_options);

  std::vector<FleetDayStats> out;
  int day = 0;
  int64_t open_calls_prev = 0;

  for (const FleetPhase& phase : phases) {
    // Manual phase: fix the table set once, at phase start.
    std::vector<std::string> manual_set;
    if (phase.mode == FleetPhase::Mode::kManualFixed) {
      manual_set = PickManualSet(&env.catalog(), &env.clock(), phase.k);
    }
    // Auto phases: one MOOP service per phase.
    std::unique_ptr<core::AutoCompService> service;
    if (phase.mode == FleetPhase::Mode::kAutoFixedK ||
        phase.mode == FleetPhase::Mode::kAutoBudget) {
      sim::StrategyPreset preset;
      preset.scope = sim::ScopeStrategy::kTable;
      preset.k = phase.k;
      if (phase.mode == FleetPhase::Mode::kAutoBudget) {
        preset.budget_gb_hours = phase.budget_gb_hours;
      }
      preset.trigger_interval = kDay;   // daily, like the deployment
      preset.first_trigger = 0;         // RunNow is called explicitly
      service = sim::MakeMoopService(&env, preset);
    }

    for (int d = 0; d < phase.days; ++d, ++day) {
      AUTOCOMP_CHECK(fleet
                         .OnboardNewTables(&env.catalog(), &env.query_engine(),
                                           day, env.clock().Now())
                         .ok());
      // Business-hours workload.
      const double query_gbhr_before = env.query_cluster().total_gb_hours();
      const int64_t files_scanned_before =
          metrics.TotalCount("files_scanned");
      double day_read_seconds = 0;
      std::vector<workload::QueryEvent> events = fleet.EventsForDay(day);
      // Reads run directly (not via driver.Execute) so the per-day
      // files-scanned counter can be tracked.
      for (const workload::QueryEvent& e : events) {
        AUTOCOMP_CHECK(driver.AdvanceTo(e.time).ok());
        if (!e.is_write) {
          auto result = env.query_engine().ExecuteRead(
              e.table, e.read_partition, env.clock().Now());
          if (result.ok()) {
            metrics.Increment("files_scanned", env.clock().Now(),
                              result->files_scanned);
            metrics.Observe("read_latency_s", env.clock().Now(),
                            result->total_seconds);
            day_read_seconds += result->total_seconds;
          }
        } else {
          AUTOCOMP_CHECK(driver.Execute(e).ok());
        }
      }
      // Nightly compaction at 22:00.
      const SimTime night = static_cast<SimTime>(day) * kDay + 22 * kHour;
      AUTOCOMP_CHECK(driver.AdvanceTo(night).ok());

      FleetDayStats stats;
      stats.day = day;
      stats.phase = phase.label;
      if (phase.mode == FleetPhase::Mode::kManualFixed) {
        for (const std::string& table : manual_set) {
          engine::CompactionRequest request;
          request.table = table;
          auto result =
              env.compaction_runner().Run(request, env.clock().Now());
          if (!result.ok() || !result->attempted) continue;
          if (result->committed) {
            ++stats.tables_compacted;
            stats.files_reduced +=
                result->files_rewritten - result->files_produced;
            (void)env.control_plane().RunRetentionFor(table, SimTime{0});
          }
          stats.gb_hours += result->gb_hours;
        }
      } else if (service != nullptr) {
        auto report = service->RunNow();
        AUTOCOMP_CHECK(report.ok()) << report.status();
        stats.tables_compacted = report->committed_count();
        stats.files_reduced = report->files_reduced();
        stats.gb_hours = report->actual_gb_hours();
      }

      // End-of-day accounting.
      AUTOCOMP_CHECK(
          driver.AdvanceTo(static_cast<SimTime>(day + 1) * kDay).ok());
      stats.fleet_file_count = env.TotalFileCount();
      const int64_t open_calls_now = env.dfs().AggregateStats().open_calls;
      stats.open_calls = open_calls_now - open_calls_prev;
      open_calls_prev = open_calls_now;
      stats.files_scanned =
          metrics.TotalCount("files_scanned") - files_scanned_before;
      stats.query_seconds = day_read_seconds;
      stats.query_gb_hours =
          env.query_cluster().total_gb_hours() - query_gbhr_before;
      out.push_back(std::move(stats));
    }

    if (histograms_out != nullptr) {
      histograms_out->emplace_back(phase.label,
                                   FleetHistogram(&env.catalog()));
    }
  }

  // Fill pct_small from periodic histograms (cheap enough at day ends).
  // Recorded only at phase boundaries above; per-day variant would be
  // costly, so derive the final per-day value lazily: here we approximate
  // by the phase-end histogram's value for every day of that phase.
  if (histograms_out != nullptr) {
    size_t phase_index = 0;
    int phase_end = phases.empty() ? 0 : phases[0].days;
    for (FleetDayStats& stats : out) {
      while (stats.day >= phase_end && phase_index + 1 < phases.size()) {
        ++phase_index;
        phase_end += phases[phase_index].days;
      }
      stats.pct_small =
          100.0 * (*histograms_out)[phase_index].second.FractionBelow(
                      128 * kMiB);
    }
  }
  return out;
}

}  // namespace autocomp::bench
