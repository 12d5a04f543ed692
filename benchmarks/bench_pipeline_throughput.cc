/// \file bench_pipeline_throughput.cc
/// \brief Control-loop throughput: full RunOnce() cycles over a synthetic
/// fleet across collector modes (the rescan oracle and the incremental
/// stats index) and pool sizes, verifying every configuration produces
/// the sequential ranking byte for byte (NFR2).
///
/// The paper projects observe/decide cycles over ~100K tables (§2); this
/// bench measures how fast the framework itself can turn the OODA loop as
/// workers and the IncrementalStatsIndex are added. Pool sizes
/// above hardware_concurrency are skipped and annotated as invalid:
/// oversubscribed pools on a starved host measure scheduler noise, not
/// speedup. Results land in BENCH_pipeline.json:
///   {"fleet_tables": N, "hardware_concurrency": H, "runs": [
///      {"name": "...", "pool_size": P, "indexed": false,
///       "cold_ms": ..., "best_ms": ..., "tables_per_sec": ...,
///       "speedup_vs_seq": ..., "speedup_vs_cold_seq": ...,
///       "index_hit_rate": ...}, ...]}
///
/// speedup_vs_seq compares steady-state best runs; speedup_vs_cold_seq
/// compares against the cold seq rescan (run 0, no warm allocator or
/// metadata residency) — the state an advisor actually wakes up in.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/control_plane.h"
#include "common/clock.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/observe.h"
#include "core/pipeline.h"
#include "core/ranking.h"
#include "core/stats_index.h"
#include "core/traits.h"
#include "lst/table.h"
#include "sim/metrics.h"
#include "storage/filesystem.h"

using namespace autocomp;

namespace {

constexpr int kFleetTables = 2000;
constexpr int kDatabases = 20;
// Best-of-N absorbs scheduler noise on busy hosts; run 0 is reported
// separately as the cold measurement.
constexpr int kRunsPerConfig = 7;

/// Synthetic fleet: metadata-only tables with fragmented file lists (the
/// observe phase reads manifests, never file contents, so no storage
/// objects are needed).
void BuildFleet(catalog::Catalog* catalog, Rng* rng) {
  for (int d = 0; d < kDatabases; ++d) {
    AUTOCOMP_CHECK(
        catalog->CreateDatabase("db" + std::to_string(d), 1'000'000).ok());
  }
  for (int t = 0; t < kFleetTables; ++t) {
    const std::string db = "db" + std::to_string(t % kDatabases);
    const std::string name = "t" + std::to_string(t);
    auto table = catalog->CreateTable(
        db, name, lst::Schema(0, {{1, "d", lst::FieldType::kDate, true}}),
        lst::PartitionSpec(1, {{1, lst::Transform::kMonth, "m"}}));
    AUTOCOMP_CHECK(table.ok()) << table.status();
    // 100-300 files spread over a handful of partitions, mostly small —
    // the long-tail fragmentation profile of Figure 1.
    const int files = static_cast<int>(rng->UniformInt(100, 300));
    const int partitions = static_cast<int>(rng->UniformInt(2, 8));
    std::vector<lst::DataFile> batch;
    batch.reserve(files);
    for (int f = 0; f < files; ++f) {
      lst::DataFile file;
      file.path = "/data/" + db + "/" + name + "/f" + std::to_string(f);
      file.partition = "m=2024-" + std::to_string(1 + f % partitions);
      file.file_size_bytes = rng->UniformInt(1, 64) * kMiB;
      file.record_count = 1000;
      batch.push_back(std::move(file));
    }
    auto txn = table->NewTransaction();
    AUTOCOMP_CHECK(txn.ok());
    AUTOCOMP_CHECK(txn->Append(std::move(batch)).ok());
    AUTOCOMP_CHECK(txn->Commit().ok());
  }
}

core::AutoCompPipeline MakePipeline(catalog::Catalog* catalog,
                                    const catalog::ControlPlane* control_plane,
                                    const Clock* clock,
                                    std::shared_ptr<core::StatsCollector> collector,
                                    ThreadPool* pool) {
  core::AutoCompPipeline::Stages stages;
  stages.generator = std::make_shared<core::TableScopeGenerator>();
  stages.collector = std::move(collector);
  stages.traits = {std::make_shared<core::FileCountReductionTrait>(),
                   std::make_shared<core::FileEntropyTrait>(),
                   std::make_shared<core::ComputeCostTrait>(24.0, 1e12)};
  stages.ranker = std::make_shared<core::MoopRanker>(
      std::vector<core::MoopRanker::Objective>{
          {"file_count_reduction", 0.7, false},
          {"compute_cost_gbhr", 0.3, true}});
  stages.selector = std::make_shared<core::FixedKSelector>(100);
  stages.scheduler = nullptr;  // decide-only: catalog state stays fixed
  stages.pool = pool;
  (void)control_plane;
  return core::AutoCompPipeline(std::move(stages), catalog, clock);
}

std::string RankingFingerprint(const core::PipelineRunReport& report) {
  std::string out;
  for (const core::ScoredCandidate& sc : report.ranked) {
    out += sc.candidate().id();
    out += '=';
    out += std::to_string(sc.score);
    out += ';';
  }
  return out;
}

struct RunResult {
  std::string name;
  int pool_size = 0;  // 0 = sequential (no pool)
  bool indexed = false;
  bool skipped = false;
  std::string skip_reason;
  double cold_ms = 0;  // first run: index entries unbuilt
  double best_ms = 0;
  core::PipelinePhaseTimings best_timings;
  double tables_per_sec = 0;
  double index_hit_rate = 0;
  std::string fingerprint;
};

struct RunSpec {
  std::string name;
  int pool_size = 0;
  bool indexed = false;
};

RunResult RunConfig(const RunSpec& spec, catalog::Catalog* catalog,
                    const catalog::ControlPlane* control_plane,
                    const Clock* clock) {
  std::unique_ptr<ThreadPool> pool;
  if (spec.pool_size > 0) pool = std::make_unique<ThreadPool>(spec.pool_size);

  // The index registers a catalog commit listener; it must outlive the
  // pipeline runs but not the bench, so scope it to this config.
  std::shared_ptr<core::IncrementalStatsIndex> index;
  std::shared_ptr<core::StatsCollector> collector;
  if (spec.indexed) {
    index = std::make_shared<core::IncrementalStatsIndex>(catalog);
    collector = std::make_shared<core::IndexedStatsCollector>(
        catalog, control_plane, clock, index);
  } else {
    collector = std::make_shared<core::StatsCollector>(catalog, control_plane,
                                                       clock);
  }
  core::AutoCompPipeline pipeline =
      MakePipeline(catalog, control_plane, clock, collector, pool.get());

  RunResult result;
  result.name = spec.name;
  result.pool_size = spec.pool_size;
  result.indexed = spec.indexed;
  int64_t index_hits = 0;
  int64_t index_total = 0;
  // The catalog never mutates (null scheduler), so the index lazily
  // builds per table on the first run and serves O(1) afterwards.
  for (int run = 0; run < kRunsPerConfig; ++run) {
    auto report = pipeline.RunOnce();
    AUTOCOMP_CHECK(report.ok()) << report.status();
    const double ms = report->timings.total_ms();
    if (run == 0) result.cold_ms = ms;
    if (result.best_ms == 0 || ms < result.best_ms) {
      result.best_ms = ms;
      result.best_timings = report->timings;
    }
    result.fingerprint = RankingFingerprint(*report);
    if (run > 0) {  // steady-state index traffic only
      index_hits += report->stats_index_hits;
      index_total += report->stats_index_hits + report->stats_index_fallbacks;
    }
  }
  result.tables_per_sec =
      result.best_ms > 0 ? kFleetTables / (result.best_ms / 1000.0) : 0;
  result.index_hit_rate =
      index_total > 0
          ? static_cast<double>(index_hits) / static_cast<double>(index_total)
          : 0;
  return result;
}

}  // namespace

int main() {
  SimulatedClock clock(0);
  storage::DistributedFileSystem dfs(&clock, 1);
  catalog::Catalog catalog(&clock, &dfs);
  catalog::ControlPlane control_plane(&catalog);
  Rng rng(7);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  // CI boxes often report 1-2 cores; with AUTOCOMP_BENCH_FORCE_POOLS=1
  // the oversubscribed pool configs still *run* (exercising the parallel
  // code paths and the NFR2 fingerprint check) even though their timings
  // measure scheduler noise rather than speedup.
  const char* force_env = std::getenv("AUTOCOMP_BENCH_FORCE_POOLS");
  const bool force_pools =
      force_env != nullptr && std::strcmp(force_env, "0") != 0 &&
      force_env[0] != '\0';
  std::printf("hardware_concurrency = %d%s\n", hw,
              force_pools ? " (AUTOCOMP_BENCH_FORCE_POOLS set)" : "");
  if (hw <= 1 && !force_pools) {
    std::printf(
        "NOTE: single-core host — multi-worker pool runs would measure "
        "oversubscription noise, not speedup; skipping them. Set "
        "AUTOCOMP_BENCH_FORCE_POOLS=1 to run them anyway.\n");
  }
  std::printf("building %d-table synthetic fleet...\n", kFleetTables);
  BuildFleet(&catalog, &rng);

  // Pool sizes to attempt; anything above hardware_concurrency is
  // recorded as skipped/invalid rather than benchmarked.
  std::vector<int> pool_sizes = {1, 2, 4, hw};
  std::sort(pool_sizes.begin(), pool_sizes.end());
  pool_sizes.erase(std::unique(pool_sizes.begin(), pool_sizes.end()),
                   pool_sizes.end());

  std::vector<RunSpec> specs;
  specs.push_back({"seq", 0, false});
  for (int workers : pool_sizes) {
    specs.push_back({"pool" + std::to_string(workers), workers, false});
  }
  specs.push_back({"indexed", 0, true});

  std::vector<RunResult> runs;
  for (const RunSpec& spec : specs) {
    if (spec.pool_size > hw && !force_pools) {
      RunResult skipped;
      skipped.name = spec.name;
      skipped.pool_size = spec.pool_size;
      skipped.indexed = spec.indexed;
      skipped.skipped = true;
      skipped.skip_reason = "pool_size > hardware_concurrency (" +
                            std::to_string(hw) + "): oversubscribed";
      std::printf("skipping %s: %s\n", spec.name.c_str(),
                  skipped.skip_reason.c_str());
      runs.push_back(std::move(skipped));
      continue;
    }
    runs.push_back(RunConfig(spec, &catalog, &control_plane, &clock));
  }
  const double seq_best_ms = runs[0].best_ms;
  // The paper's comparison point is a *cold* rescan: an advisor waking up
  // with no warm state re-reads every manifest. Steady-state indexed runs
  // are measured against that cold seq baseline, and best-vs-best is
  // reported alongside for transparency.
  const double seq_cold_ms = runs[0].cold_ms;

  // NFR2: every executed configuration must produce the sequential
  // ranking, byte for byte — including the index-backed one.
  for (const RunResult& r : runs) {
    if (r.skipped) continue;
    AUTOCOMP_CHECK(r.fingerprint == runs[0].fingerprint)
        << "ranking diverged in config " << r.name;
  }

  sim::TablePrinter table({"config", "pool", "index", "cold ms", "best ms",
                           "gen", "obs", "orient", "decide", "tables/s",
                           "speedup", "vs cold", "idx%"});
  JsonValue json_runs = JsonValue::Array();
  for (const RunResult& r : runs) {
    const double speedup =
        !r.skipped && r.best_ms > 0 ? seq_best_ms / r.best_ms : 0;
    const double speedup_vs_cold =
        !r.skipped && r.best_ms > 0 ? seq_cold_ms / r.best_ms : 0;
    if (r.skipped) {
      table.AddRow({r.name, std::to_string(r.pool_size),
                    r.indexed ? "on" : "off", "skipped", "-", "-", "-", "-",
                    "-", "-", "-", "-", "-"});
    } else {
      table.AddRow({r.name, std::to_string(r.pool_size),
                    r.indexed ? "on" : "off", sim::Fmt(r.cold_ms, 2),
                    sim::Fmt(r.best_ms, 2),
                    sim::Fmt(r.best_timings.generate_ms, 1),
                    sim::Fmt(r.best_timings.observe_ms, 1),
                    sim::Fmt(r.best_timings.orient_ms, 1),
                    sim::Fmt(r.best_timings.decide_ms, 1),
                    sim::Fmt(r.tables_per_sec, 0),
                    sim::Fmt(speedup, 2), sim::Fmt(speedup_vs_cold, 2),
                    sim::Fmt(100.0 * r.index_hit_rate, 1)});
    }
    JsonValue entry = JsonValue::Object();
    entry.Set("name", r.name);
    entry.Set("pool_size", r.pool_size);
    entry.Set("indexed", r.indexed);
    if (r.skipped) {
      entry.Set("skipped", true);
      entry.Set("skip_reason", r.skip_reason);
    } else {
      entry.Set("cold_ms", r.cold_ms);
      entry.Set("best_ms", r.best_ms);
      entry.Set("tables_per_sec", r.tables_per_sec);
      entry.Set("speedup_vs_seq", speedup);
      entry.Set("speedup_vs_cold_seq", speedup_vs_cold);
      entry.Set("index_hit_rate", r.index_hit_rate);
    }
    json_runs.Append(std::move(entry));
  }
  std::printf("%s", table.ToString().c_str());

  JsonValue doc = JsonValue::Object();
  doc.Set("fleet_tables", kFleetTables);
  doc.Set("hardware_concurrency", hw);
  doc.Set("force_pools", force_pools);
  doc.Set("runs", std::move(json_runs));
  std::FILE* out = std::fopen("BENCH_pipeline.json", "w");
  AUTOCOMP_CHECK(out != nullptr);
  const std::string dumped = doc.Dump();
  std::fwrite(dumped.data(), 1, dumped.size(), out);
  std::fclose(out);
  std::printf("wrote BENCH_pipeline.json\n");
  return 0;
}
