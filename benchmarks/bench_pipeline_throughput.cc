/// \file bench_pipeline_throughput.cc
/// \brief Control-loop throughput: full RunOnce() cycles over a synthetic
/// fleet with the rescan oracle (`seq`) and the incremental stats index
/// (`indexed`), verifying both produce the same ranking byte for byte
/// (NFR2).
///
/// The paper projects observe/decide cycles over ~100K tables (§2); this
/// bench measures how fast the framework itself can turn the OODA loop
/// and what the IncrementalStatsIndex buys. Each cycle runs sequentially.
/// Results land in BENCH_pipeline.json:
///   {"fleet_tables": N, "hardware_concurrency": H, "runs": [
///      {"name": "...", "indexed": false,
///       "cold_ms": ..., "best_ms": ..., "tables_per_sec": ...,
///       "speedup_vs_seq": ..., "speedup_vs_cold_seq": ...,
///       "index_hit_rate": ...}, ...]}
///
/// speedup_vs_seq compares steady-state best runs; speedup_vs_cold_seq
/// compares against the cold seq rescan (run 0, no warm allocator or
/// metadata residency) — the state an advisor actually wakes up in.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchmarks/harness.h"
#include "catalog/catalog.h"
#include "catalog/control_plane.h"
#include "common/clock.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/observe.h"
#include "core/pipeline.h"
#include "core/ranking.h"
#include "core/stats_index.h"
#include "core/traits.h"
#include "lst/table.h"
#include "sim/metrics.h"
#include "storage/namenode.h"

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
                                    std::shared_ptr<core::StatsCollector> collector) {
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
  stages.executor = nullptr;  // decide-only: catalog state stays fixed
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
  bool indexed = false;
  double cold_ms = 0;  // first run: index entries unbuilt
  double best_ms = 0;
  core::PipelinePhaseTimings best_timings;
  double tables_per_sec = 0;
  double index_hit_rate = 0;
  std::string fingerprint;
};

RunResult RunConfig(const std::string& name, bool indexed,
                    catalog::Catalog* catalog,
                    const catalog::ControlPlane* control_plane,
                    const Clock* clock) {
  // The index registers a catalog commit listener; it must outlive the
  // pipeline runs but not the bench, so scope it to this config.
  std::shared_ptr<core::IncrementalStatsIndex> index;
  std::shared_ptr<core::StatsCollector> collector;
  if (indexed) {
    index = std::make_shared<core::IncrementalStatsIndex>(catalog);
    collector = std::make_shared<core::IndexedStatsCollector>(
        catalog, control_plane, clock, index);
  } else {
    collector = std::make_shared<core::StatsCollector>(catalog, control_plane,
                                                       clock);
  }
  core::AutoCompPipeline pipeline =
      MakePipeline(catalog, control_plane, clock, collector);

  RunResult result;
  result.name = name;
  result.indexed = indexed;
  int64_t index_hits = 0;
  int64_t index_total = 0;
  // The catalog never mutates (null executor), so the index lazily
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
  storage::NameNode nn(&clock);
  catalog::Catalog catalog(&clock, &nn);
  catalog::ControlPlane control_plane(&catalog);
  Rng rng(7);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("hardware_concurrency = %d\n", hw);
  std::printf("building %d-table synthetic fleet...\n", kFleetTables);
  BuildFleet(&catalog, &rng);

  std::vector<RunResult> runs;
  runs.push_back(RunConfig("seq", false, &catalog, &control_plane, &clock));
  runs.push_back(RunConfig("indexed", true, &catalog, &control_plane, &clock));
  const double seq_best_ms = runs[0].best_ms;
  // The paper's comparison point is a *cold* rescan: an advisor waking up
  // with no warm state re-reads every manifest. Steady-state indexed runs
  // are measured against that cold seq baseline, and best-vs-best is
  // reported alongside for transparency.
  const double seq_cold_ms = runs[0].cold_ms;

  // NFR2: the index-backed configuration must produce the rescan
  // oracle's ranking, byte for byte.
  AUTOCOMP_CHECK(runs[1].fingerprint == runs[0].fingerprint)
      << "indexed ranking diverged from the seq rescan";

  sim::TablePrinter table({"config", "index", "cold ms", "best ms", "gen",
                           "obs", "orient", "decide", "tables/s", "speedup",
                           "vs cold", "idx%"});
  JsonValue json_runs = JsonValue::Array();
  for (const RunResult& r : runs) {
    const double speedup = r.best_ms > 0 ? seq_best_ms / r.best_ms : 0;
    const double speedup_vs_cold = r.best_ms > 0 ? seq_cold_ms / r.best_ms : 0;
    table.AddRow({r.name, r.indexed ? "on" : "off", sim::Fmt(r.cold_ms, 2),
                  sim::Fmt(r.best_ms, 2),
                  sim::Fmt(r.best_timings.generate_ms, 1),
                  sim::Fmt(r.best_timings.observe_ms, 1),
                  sim::Fmt(r.best_timings.orient_ms, 1),
                  sim::Fmt(r.best_timings.decide_ms, 1),
                  sim::Fmt(r.tables_per_sec, 0), sim::Fmt(speedup, 2),
                  sim::Fmt(speedup_vs_cold, 2),
                  sim::Fmt(100.0 * r.index_hit_rate, 1)});
    JsonValue entry = JsonValue::Object();
    entry.Set("name", r.name);
    entry.Set("indexed", r.indexed);
    entry.Set("cold_ms", r.cold_ms);
    entry.Set("best_ms", r.best_ms);
    entry.Set("tables_per_sec", r.tables_per_sec);
    entry.Set("speedup_vs_seq", speedup);
    entry.Set("speedup_vs_cold_seq", speedup_vs_cold);
    entry.Set("index_hit_rate", r.index_hit_rate);
    json_runs.Append(std::move(entry));
  }
  std::printf("%s", table.ToString().c_str());

  JsonValue doc = JsonValue::Object();
  doc.Set("fleet_tables", kFleetTables);
  doc.Set("hardware_concurrency", hw);
  doc.Set("runs", std::move(json_runs));
  bench::WriteJson("BENCH_pipeline.json", doc);
  return 0;
}
