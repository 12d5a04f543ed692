/// \file bench_fig01_file_size_distribution.cc
/// \brief Reproduces Figure 1: "File size distribution for ingested data
/// (raw ingestion vs. user-derived data)".
///
/// Paper shape to match: the centrally managed trickle-ingestion pipeline
/// (5-minute flushes + hourly incremental compaction) concentrates file
/// sizes near the 512MB target, while end-user Spark/Trino/Flink jobs
/// produce a heavy skew of small files.

#include <cstdio>

#include "common/histogram.h"
#include "common/logging.h"
#include "sim/driver.h"
#include "sim/environment.h"
#include "sim/metrics.h"
#include "workload/tpch.h"
#include "workload/trickle.h"

using namespace autocomp;

namespace {

SizeHistogram HistogramOf(catalog::Catalog* catalog,
                          const std::vector<std::string>& tables) {
  SizeHistogram histogram = SizeHistogram::ForFileSizes();
  for (const std::string& table : tables) {
    auto meta = catalog->LoadTable(table);
    if (!meta.ok()) continue;
    (*meta)->ForEachLiveFile(
        [&](const lst::DataFileRef& f) { histogram.Add(f.file_size_bytes); });
  }
  return histogram;
}

}  // namespace

int main() {
  std::printf("=== Figure 1: raw ingestion vs user-derived file sizes ===\n");
  sim::SimEnvironment env;

  // --- Raw ingestion: 6 hours of 5-minute flushes with hourly rollups
  // (the managed pipeline's incremental compaction to 512MB, §2).
  workload::TrickleOptions trickle_options;
  trickle_options.num_topics = 4;
  trickle_options.duration = 6 * kHour;
  trickle_options.bytes_per_flush = 384 * kMiB;
  workload::TrickleIngestion trickle(trickle_options);
  AUTOCOMP_CHECK(trickle.Setup(&env.catalog(), 0).ok());
  SimTime next_rollup = kHour;
  for (const workload::QueryEvent& e : trickle.GenerateEvents()) {
    while (e.time >= next_rollup) {
      env.clock().AdvanceTo(next_rollup);
      auto rolled = trickle.RunHourlyRollup(&env.compaction_runner(),
                                            &env.control_plane(), next_rollup);
      AUTOCOMP_CHECK(rolled.ok()) << rolled.status();
      next_rollup += kHour;
    }
    env.clock().AdvanceTo(e.time);
    auto write = env.query_engine().ExecuteWrite(e.write, e.time);
    AUTOCOMP_CHECK(write.ok()) << write.status();
  }
  env.clock().AdvanceTo(next_rollup);
  (void)trickle.RunHourlyRollup(&env.compaction_runner(),
                                &env.control_plane(), next_rollup);

  // --- User-derived data: untuned end-user jobs.
  AUTOCOMP_CHECK(workload::SetupTpchDatabase(
                     &env.catalog(), &env.query_engine(), "userdata",
                     24 * kGiB, engine::UntunedUserJobProfile(),
                     env.clock().Now())
                     .ok());

  const SizeHistogram raw = HistogramOf(&env.catalog(), trickle.TableNames());
  std::vector<std::string> user_tables;
  for (const std::string& t : env.catalog().ListTables("userdata")) {
    user_tables.push_back("userdata." + t);
  }
  const SizeHistogram user = HistogramOf(&env.catalog(), user_tables);

  std::printf("--- raw ingestion (managed pipeline, hourly rollup) ---\n%s\n",
              raw.ToAsciiChart().c_str());
  std::printf("--- user-derived (untuned engine writers) ---\n%s\n",
              user.ToAsciiChart().c_str());

  sim::TablePrinter table({"dataset", "files", "% < 128MiB", "% < 512MiB"});
  table.AddRow({"raw ingestion", std::to_string(raw.total_count()),
                sim::Fmt(100 * raw.FractionBelow(128 * kMiB), 1),
                sim::Fmt(100 * raw.FractionBelow(512 * kMiB), 1)});
  table.AddRow({"user-derived", std::to_string(user.total_count()),
                sim::Fmt(100 * user.FractionBelow(128 * kMiB), 1),
                sim::Fmt(100 * user.FractionBelow(512 * kMiB), 1)});
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}
