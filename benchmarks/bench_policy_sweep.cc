/// \file bench_policy_sweep.cc
/// \brief The composable-policy Pareto sweep: every valid pinned-table
/// PolicySpec (core/policy.h; 50 points = 5 triggers x {3 movements x 3
/// movement-agnostic pickers + the merge-only online-merge picker}) is
/// replayed over four workload archetypes — batch-etl, trickle-heavy,
/// scan-heavy and churn-onboarding — and each (archetype, policy) point
/// is priced on the paper's two axes: compaction GBHr spent vs mean read
/// latency delivered. core::MarkPolicyFrontier marks the non-dominated
/// set per archetype; the whole cross-product lands in
/// BENCH_policy.json.
///
/// Every point runs in a forked child (parent stays small; a crashed
/// replay fails one point, not the harness) that executes the replay
/// TWICE — sequential and shard4-pool2 — and the two merged
/// MetricsRecorders must agree Equals + ContentHash exactly (NFR2
/// extends to every policy shape, not just the default). The run aborts
/// on any divergence. Replays use the deferred-act driver so compaction
/// work is executed on the simulated timeline and its GBHr lands in the
/// metrics; host-wall-clock profiling series are disabled
/// (DriverOptions::record_host_timings) so bit-identity is meaningful.
///
/// Two follow-up sections reuse the sweep's machinery:
///  * merge competitive ratios — per archetype, an arrival trace shaped
///    like that archetype's write pattern is priced under every built-in
///    online merge policy against the offline-optimal oracle
///    (core/merge_policy.h); ratios must be finite and >= 1, and the
///    per-archetype numbers are the ones quoted in EXPERIMENTS.md;
///  * armed-overhead parity — a non-default policy (per-policy decide
///    spans and label plumbing active) with the fault injector armed on
///    an empty profile must stay bit-identical to the unarmed run, with
///    the wall-clock delta budgeted at <2%, measured pair-interleaved
///    (median of per-pair ratios, bench::RunPaired) exactly like
///    bench_sim_throughput, over 31 pairs of a batch-etl fleet ten
///    times the sweep's size.
///
/// A PolicyTuner demo closes the loop to §6.3: a CFO optimizer searches
/// the four-axis shape space through PolicySpecCodec against the
/// *measured* batch-etl outcomes (normalized GBHr + latency
/// scalarization), showing the tuner converging on the measured frontier
/// without a single extra simulation (decode-level memoization).
///
/// Knobs: AUTOCOMP_BENCH_POLICY_DAYS (default 1),
/// AUTOCOMP_BENCH_POLICY_MAX_SPECS (0 = all 50),
/// AUTOCOMP_BENCH_POLICY_MAX_OVERHEAD_PCT (<=0 = report only).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "benchmarks/harness.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/merge_policy.h"
#include "core/pareto.h"
#include "core/policy.h"
#include "fault/fault_injector.h"
#include "sim/fleet_driver.h"
#include "sim/metrics.h"
#include "sim/presets.h"
#include "tuning/optimizer.h"
#include "tuning/policy_search.h"

using namespace autocomp;

namespace {

const int kDays = bench::EnvInt("AUTOCOMP_BENCH_POLICY_DAYS", 1, 1);
const int kMaxSpecs = bench::EnvInt("AUTOCOMP_BENCH_POLICY_MAX_SPECS", 0, 0);
// The armed-overhead pairs replay ten times the sweep's databases (160
// tables, ~0.2 s a replay) and time 31 pairs: a 3% budget is then
// several milliseconds a pair, not under one, and the median rests on
// enough ratios that a noisy host's slow spells do not move it past the
// budget (on a shared 4-core host, 0 of 180 windows of 31 consecutive
// pairs of identical work had a median over 3%; of 5 pairs, 18%).
constexpr int kOverheadRuns = 31;
constexpr int kOverheadDatabases = 40;
// Tuner iterations.
constexpr int kTunerIters = 48;

/// One workload archetype: a named FleetOptions shape. The four cover
/// the quadrants the paper's fleet mixes: steady batch loads, high-
/// frequency trickle ingestion (the small-file factory), read-dominated
/// serving tables, and a growing fleet with constant onboarding churn.
struct Archetype {
  const char* name;
  double daily_write_fraction;
  double daily_write_size_fraction;
  double daily_reads_per_table;
  int new_tables_per_day;
};

constexpr Archetype kArchetypes[] = {
    {"batch-etl", 0.15, 0.02, 1.0, 2},
    {"trickle-heavy", 0.70, 0.004, 1.0, 2},
    {"scan-heavy", 0.15, 0.02, 4.0, 2},
    {"churn-onboarding", 0.35, 0.01, 1.5, 6},
};
constexpr int kNumArchetypes = static_cast<int>(std::size(kArchetypes));

sim::FleetSimOptions ArchetypeOptions(const Archetype& archetype,
                                      const core::PolicySpec& spec) {
  sim::FleetSimOptions options;
  options.days = kDays;
  options.seed = 7;
  options.fleet.num_databases = 4;
  options.fleet.tables_per_db = 4;
  options.fleet.seed = 77;
  // Small tables keep a 50-policy x 4-archetype x 2-run sweep in
  // minutes; the file-count dynamics (what the policies act on) keep
  // their shape.
  options.fleet.size_mu = std::log(128.0 * kMiB);
  options.fleet.size_sigma = 1.2;
  options.fleet.daily_write_fraction = archetype.daily_write_fraction;
  options.fleet.daily_write_size_fraction =
      archetype.daily_write_size_fraction;
  options.fleet.daily_reads_per_table = archetype.daily_reads_per_table;
  options.fleet.new_tables_per_day = archetype.new_tables_per_day;
  options.env.namenode.rpc_capacity_per_hour = 2'000;
  options.driver.sample_interval = 4 * kHour;
  options.driver.retention_interval = kDay;
  // Deferred act: compaction executes on the simulated timeline, so its
  // commits/GBHr are recorded as metrics; the driver builds each request
  // with the movement axis of the lane service's pipeline. Host-wall-clock
  // profiling series stay off — the bit-identity assertion below
  // compares every recorded metric.
  options.driver.deferred_compaction = true;
  options.driver.record_host_timings = false;
  sim::StrategyPreset preset;
  preset.scope = sim::ScopeStrategy::kTable;
  preset.k = 5;
  preset.deferred_act = true;
  preset.policy = spec;
  options.preset = preset;
  return options;
}

/// What one (archetype, policy) replay measures. Trivially copyable: a
/// forked point returns it whole.
struct PointBody {
  double gb_hours = 0;
  double read_latency_s = 0;
  long long events = 0;
  long long commits = 0;
  unsigned long long hash_seq = 0;
  bool identical = false;
};

/// Runs the point twice — sequential reference and shard4-pool2 — and
/// compares the merged metrics exactly.
PointBody PointReplay(const Archetype& archetype,
                      const core::PolicySpec& spec) {
  sim::FleetSimOptions seq_options = ArchetypeOptions(archetype, spec);
  seq_options.sharded = false;
  const sim::FleetSimResult seq =
      bench::TimeReplay(std::move(seq_options)).result;

  ThreadPool pool(2);
  sim::FleetSimOptions shard_options = ArchetypeOptions(archetype, spec);
  shard_options.sharded = true;
  shard_options.shards = 4;
  shard_options.pool = &pool;
  const sim::FleetSimResult shard =
      bench::TimeReplay(std::move(shard_options)).result;

  PointBody out;
  out.gb_hours = sim::SeriesSum(seq.metrics, "compaction_gbhr");
  const Sample reads = seq.metrics.AllObservations("read_latency_s");
  out.read_latency_s = reads.empty() ? 0.0 : reads.Mean();
  out.events = seq.events_executed;
  out.commits = seq.metrics.TotalCount("compaction_commits");
  out.hash_seq = seq.metrics.ContentHash();
  std::string why;
  out.identical = seq.metrics.Equals(shard.metrics, &why) &&
                  out.hash_seq == shard.metrics.ContentHash() &&
                  seq.events_executed == shard.events_executed &&
                  seq.total_files == shard.total_files;
  if (!out.identical) {
    std::fprintf(stderr, "policy %s diverged seq vs shard4-pool2: %s\n",
                 spec.ToString().c_str(),
                 why.empty() ? "aggregate totals differ" : why.c_str());
  }
  return out;
}

/// An archetype-shaped arrival trace for the merge-ratio report: run
/// sizes drawn lognormally around that archetype's per-write size, with
/// the draw count fixed so the offline oracle (exponential search)
/// stays tractable.
std::vector<int64_t> ArchetypeArrivals(int archetype_index) {
  const Archetype& archetype = kArchetypes[archetype_index];
  std::mt19937_64 rng(1000003ULL * (archetype_index + 1));
  const double median =
      std::max(1.0 * kMiB, 128.0 * kMiB * archetype.daily_write_size_fraction);
  std::lognormal_distribution<double> size(std::log(median), 0.8);
  std::vector<int64_t> arrivals(14);
  for (int64_t& a : arrivals) {
    a = std::max<int64_t>(1, static_cast<int64_t>(std::llround(size(rng))));
  }
  return arrivals;
}

/// The sequential batch-etl replay the overhead pairs time, at
/// kOverheadDatabases databases. The policy is non-default so the
/// per-policy plumbing (decide label, the policy-assembled stages) is on
/// the measured path; `armed` adds the enabled-but-empty fault injector
/// whose cost is being budgeted.
sim::FleetSimOptions OverheadOptions(bool armed) {
  auto spec = core::PolicySpec::Parse(
      "trigger=file-count:4;granularity=table;movement=partial;picker=moop");
  AUTOCOMP_CHECK(spec.ok()) << spec.status();
  sim::FleetSimOptions options = ArchetypeOptions(kArchetypes[0], *spec);
  options.fleet.num_databases = kOverheadDatabases;
  options.sharded = false;
  if (armed) {
    options.env.fault.enabled = true;
    options.env.fault.seed = 0x5eedfa;  // empty profile: nothing to inject
  }
  return options;
}

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // live progress when piped

  std::vector<core::PolicySpec> specs = core::EnumerateValidSpecs();
  if (kMaxSpecs > 0 && static_cast<int>(specs.size()) > kMaxSpecs) {
    std::printf("capping sweep to first %d of %zu specs "
                "(AUTOCOMP_BENCH_POLICY_MAX_SPECS)\n",
                kMaxSpecs, specs.size());
    specs.resize(kMaxSpecs);
  }
  std::printf("policy sweep: %zu specs x %d archetypes, %d day(s), each "
              "point seq + shard4-pool2...\n",
              specs.size(), kNumArchetypes, kDays);

  std::vector<core::PolicyOutcome> outcomes;
  std::vector<PointBody> bodies;
  bool all_identical = true;
  for (int a = 0; a < kNumArchetypes; ++a) {
    const Archetype& archetype = kArchetypes[a];
    int64_t commits = 0;
    for (const core::PolicySpec& spec : specs) {
      // Forked, so the parent never accumulates 400 runs of merged
      // recorders (and a wedged replay fails one point, not the sweep).
      const PointBody body =
          bench::RunForked("policy point " + spec.ToString(), [&] {
            return PointReplay(archetype, spec);
          }).value;
      AUTOCOMP_CHECK(body.identical)
          << "NFR2 violation: " << archetype.name << " / " << spec.ToString()
          << " is not bit-identical seq vs shard4-pool2";
      all_identical = all_identical && body.identical;
      commits += body.commits;
      core::PolicyOutcome outcome;
      outcome.spec = spec.ToString();
      outcome.archetype = archetype.name;
      outcome.gb_hours = body.gb_hours;
      outcome.read_latency_s = body.read_latency_s;
      outcomes.push_back(std::move(outcome));
      bodies.push_back(body);
    }
    std::printf("  %s: %zu points replayed (%lld compaction commits across "
                "the sweep)\n",
                archetype.name, specs.size(),
                static_cast<long long>(commits));
    AUTOCOMP_CHECK(commits > 0)
        << "archetype " << archetype.name
        << " never compacted under any policy — the sweep is vacuous";
  }
  core::MarkPolicyFrontier(&outcomes);

  JsonValue archetypes_json = JsonValue::Array();
  for (int a = 0; a < kNumArchetypes; ++a) {
    const Archetype& archetype = kArchetypes[a];
    sim::TablePrinter table(
        {"policy", "GBHr", "read s", "commits", "frontier"});
    JsonValue points = JsonValue::Array();
    int frontier_size = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
      const size_t index = a * specs.size() + i;
      const core::PolicyOutcome& outcome = outcomes[index];
      const PointBody& body = bodies[index];
      if (outcome.on_frontier) ++frontier_size;
      table.AddRow({outcome.spec, sim::Fmt(outcome.gb_hours, 3),
                    sim::Fmt(outcome.read_latency_s, 4),
                    std::to_string(body.commits),
                    outcome.on_frontier ? "*" : ""});
      JsonValue point = JsonValue::Object();
      point.Set("spec", outcome.spec);
      point.Set("gb_hours", outcome.gb_hours);
      point.Set("read_latency_s", outcome.read_latency_s);
      point.Set("on_frontier", outcome.on_frontier);
      point.Set("commits", static_cast<int64_t>(body.commits));
      point.Set("events", static_cast<int64_t>(body.events));
      point.Set("metrics_hash", std::to_string(body.hash_seq));
      point.Set("identical_seq_vs_shard", body.identical);
      points.Append(std::move(point));
    }
    std::printf("\n[%s] Pareto frontier (%d of %zu points):\n%s",
                archetype.name, frontier_size, specs.size(),
                table.ToString().c_str());

    // Merge competitive ratios on this archetype's arrival shape.
    const std::vector<int64_t> arrivals = ArchetypeArrivals(a);
    const size_t merge_k = 4;
    JsonValue ratios = JsonValue::Array();
    sim::TablePrinter ratio_table(
        {"merge policy", "online", "offline", "ratio"});
    for (const auto& policy : core::BuiltinMergePolicies()) {
      const core::MergeCompetitiveRatio r =
          core::CompetitiveRatioFor(arrivals, merge_k, *policy);
      AUTOCOMP_CHECK(r.ratio >= 1.0 && std::isfinite(r.ratio))
          << policy->name() << " on " << archetype.name;
      ratio_table.AddRow({policy->name(), std::to_string(r.online_cost),
                          std::to_string(r.offline_cost),
                          sim::Fmt(r.ratio, 3)});
      JsonValue row = JsonValue::Object();
      row.Set("policy", policy->name());
      row.Set("online_cost", r.online_cost);
      row.Set("offline_cost", r.offline_cost);
      row.Set("ratio", r.ratio);
      ratios.Append(std::move(row));
    }
    std::printf("[%s] merge competitive ratios (k=%zu, %zu arrivals):\n%s",
                archetype.name, merge_k, arrivals.size(),
                ratio_table.ToString().c_str());

    JsonValue entry = JsonValue::Object();
    entry.Set("name", std::string(archetype.name));
    entry.Set("daily_write_fraction", archetype.daily_write_fraction);
    entry.Set("daily_write_size_fraction",
              archetype.daily_write_size_fraction);
    entry.Set("daily_reads_per_table", archetype.daily_reads_per_table);
    entry.Set("new_tables_per_day", archetype.new_tables_per_day);
    entry.Set("frontier_size", frontier_size);
    entry.Set("points", std::move(points));
    entry.Set("merge_k", static_cast<int64_t>(merge_k));
    entry.Set("merge_ratios", std::move(ratios));
    archetypes_json.Append(std::move(entry));
  }

  // --- Armed-overhead parity: enabled-but-empty injector on the
  // policy-assembled pipeline, pair-interleaved against its own unarmed
  // baseline (host drift exceeds the 2% budget on minute scales).
  std::printf("\narmed-overhead parity (non-default policy, armed empty "
              "injector)...\n");
  const bench::PairedRuns pairs = bench::RunPaired(
      "armed", kOverheadRuns, OverheadOptions(false), OverheadOptions(true));
  const sim::FleetSimResult& base_last = pairs.base.result;
  const sim::FleetSimResult& armed_last = pairs.variant.result;
  std::string why;
  const bool parity =
      base_last.metrics.Equals(armed_last.metrics, &why) &&
      base_last.metrics.ContentHash() == armed_last.metrics.ContentHash() &&
      armed_last.faults_injected == 0;
  AUTOCOMP_CHECK(parity)
      << "armed-but-empty injector perturbed the policy pipeline: "
      << (why.empty() ? "hash/fault totals differ" : why);
  const double armed_overhead_pct = pairs.overhead_pct;
  constexpr double kArmedOverheadTargetPct = 2.0;
  std::printf("armed overhead: %.2f%% (target < %.0f%%), parity: %s\n",
              armed_overhead_pct, kArmedOverheadTargetPct,
              parity ? "bit-identical" : "DIVERGED");

  // --- §6.3 shape search over the measured batch-etl outcomes. The
  // objective scalarizes both axes, normalized by the sweep's maxima so
  // neither dominates on units. No fresh simulation runs: the tuner
  // evaluates against the sweep's memo, which is the point — shape
  // search is cheap once the design space is priced.
  double max_gbhr = 0;
  double max_latency = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    max_gbhr = std::max(max_gbhr, outcomes[i].gb_hours);
    max_latency = std::max(max_latency, outcomes[i].read_latency_s);
  }
  std::map<std::string, double> measured;
  for (size_t i = 0; i < specs.size(); ++i) {
    const double g = max_gbhr > 0 ? outcomes[i].gb_hours / max_gbhr : 0;
    const double l =
        max_latency > 0 ? outcomes[i].read_latency_s / max_latency : 0;
    measured[outcomes[i].spec] = g + l;
  }
  tuning::CfoOptimizer cfo(tuning::PolicySpecCodec::Dims(), /*seed=*/7);
  tuning::PolicyTuner tuner(
      &cfo, [&](const core::PolicySpec& suggested) -> Result<double> {
        core::PolicySpec pinned = suggested;
        pinned.granularity = core::GranularityAxis::kTable;
        const auto it = measured.find(pinned.ToString());
        // Outside the (possibly capped) sweep: a bad but finite score,
        // so the search keeps moving instead of failing.
        if (it == measured.end()) return 4.0;
        return it->second;
      });
  auto trials = tuner.Run(kTunerIters);
  AUTOCOMP_CHECK(trials.ok()) << trials.status();
  auto best = tuner.Best();
  AUTOCOMP_CHECK(best.ok()) << best.status();
  std::printf("tuner (%d iters, %lld memo hits): best shape %s "
              "(objective %.4f)\n",
              kTunerIters, static_cast<long long>(tuner.memo_hits()),
              best->spec.ToString().c_str(), best->objective);

  JsonValue tuner_json = JsonValue::Object();
  tuner_json.Set("optimizer", std::string("cfo"));
  tuner_json.Set("iterations", kTunerIters);
  tuner_json.Set("memo_hits", tuner.memo_hits());
  tuner_json.Set("best_spec", best->spec.ToString());
  tuner_json.Set("best_objective", best->objective);
  tuner_json.Set("archetype", std::string(kArchetypes[0].name));

  JsonValue doc = JsonValue::Object();
  doc.Set("days", kDays);
  doc.Set("policy_points", static_cast<int64_t>(specs.size()));
  doc.Set("archetype_count", kNumArchetypes);
  doc.Set("all_identical_seq_vs_shard", all_identical);
  doc.Set("archetypes", std::move(archetypes_json));
  doc.Set("armed_overhead_pct", armed_overhead_pct);
  doc.Set("armed_overhead_target_pct", kArmedOverheadTargetPct);
  doc.Set("armed_parity", parity);
  doc.Set("tuner", std::move(tuner_json));
  bench::WriteJson("BENCH_policy.json", doc);

  // --- Perf gate (CI perf-smoke; report-only unless set).
  const double max_overhead_pct =
      bench::EnvDouble("AUTOCOMP_BENCH_POLICY_MAX_OVERHEAD_PCT", 0);
  const int gate_failures =
      bench::Breached({bench::Gate::kBudgetPct, "policy armed overhead",
                       armed_overhead_pct, max_overhead_pct})
          ? 1
          : 0;
  if (max_overhead_pct > 0) {
    std::printf("perf gates: %s (policy overhead budget %.2f%%)\n",
                gate_failures == 0 ? "PASS" : "FAIL", max_overhead_pct);
  }
  return gate_failures == 0 ? 0 : 1;
}
