/// \file autocomp_cli.cc
/// \brief Command-line scenario runner for the AutoComp simulator.
///
/// Runs the paper's evaluation scenarios with user-chosen knobs and
/// prints the headline metrics, e.g.:
///
///   autocomp_cli cab --strategy=hybrid --k=500 --hours=5
///   autocomp_cli cab --strategy=none --databases=8
///   autocomp_cli fleet --days=14 --strategy=table --budget=600
///   autocomp_cli fleet --days=7 --k=10 --seed=3
///   autocomp_cli fleetsim --days=7 --sim-shards=8
///
/// Scenarios:
///   cab      — the §6 CAB experiment (TPC-H-like databases + query
///              streams + hourly compaction trigger)
///   fleet    — the §7 production-fleet experiment (daily trigger)
///   fleetsim — shard-parallel data-plane replay of the fleet workload
///              (sim::FleetSimulation; bit-identical at any shard count)

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics_export.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "core/advisor.h"
#include "core/policy.h"
#include "fault/fault_injector.h"
#include "fault/invariant_checker.h"
#include "sched/scheduler.h"
#include "sim/driver.h"
#include "sim/environment.h"
#include "sim/fleet_driver.h"
#include "sim/metrics.h"
#include "sim/presets.h"
#include "workload/cab.h"
#include "workload/fleet.h"
#include "workload/tpch.h"

using namespace autocomp;

namespace {

struct Flags {
  std::string scenario;
  std::string strategy = "hybrid";  // none|table|hybrid|partition|snapshot
  int64_t k = 50;
  double budget = 0;  // GBHr; > 0 switches to dynamic-k selection
  int hours = 5;
  int days = 7;
  int databases = 20;
  uint64_t seed = 99;
  bool deferred = true;
  /// fleetsim: shard count for the parallel replay driver; the shard
  /// pool gets min(sim_shards, hardware concurrency) workers.
  int sim_shards = 4;
  /// fleetsim: resident-lane budget — before each wave of due lanes and
  /// after each epoch, coldest lanes beyond this count dehydrate into
  /// checkpoints (0 = unbounded).
  int64_t max_resident_lanes = 0;
  /// fleetsim: idle rule — evict lanes with no real work for this many
  /// simulated hours, regardless of the budget (0 = off).
  int evict_after_idle_hours = 0;
  /// Composable policy spec (core/policy.h), e.g.
  /// "trigger=file-count:16;granularity=table;movement=merge;
  /// picker=online-merge". Empty = the legacy preset path (equivalent to
  /// the Default() spec).
  std::string policy;
  /// Fleet maintenance scheduler discipline (DESIGN.md §12): "fifo" (the
  /// default) starts units in per-table plan order; "drr" is deficit-
  /// round-robin fair share over tenants; "priority" is aged priority
  /// order.
  std::string scheduler = "fifo";
  /// Per-tenant GBHr/day budget for scheduler admission control
  /// (0 = unlimited).
  double tenant_budget = 0;
  /// Let the scheduler preempt running compactions (traffic spikes and
  /// the engine.preempt fault site).
  bool preemption = false;
  /// Per-tenant queries/hour that count as a traffic spike and preempt
  /// that tenant's lowest-value running compaction (0 = never); only
  /// meaningful with --preemption.
  int64_t spike_queries_per_hour = 0;
  /// Fault injection profile ("none" leaves the injector disabled).
  std::string fault_profile = "none";
  /// Seed for the injector's counter-RNG draws.
  uint64_t fault_seed = 0x5eedfa;
  /// Bounded retry attempts for compaction commits / runner crashes.
  int fault_retries = 4;
  /// Run the fault harness's invariant audit after the run (and, for
  /// fleetsim, after every hour epoch).
  bool check_invariants = false;
  /// Trace detail recorded during the run (off|phases|decisions|full).
  std::string trace_level = "off";
  /// Chrome trace-event JSON output path ("" = no export).
  std::string trace_out;
  /// Prometheus text metrics output path ("" = no export).
  std::string metrics_out;
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: autocomp_cli <cab|fleet|fleetsim> [--strategy=none|table|"
      "hybrid|partition|snapshot]\n"
      "                    [--policy=SPEC]\n"
      "                    [--k=N] [--budget=GBHR] [--hours=N] [--days=N]\n"
      "                    [--databases=N] [--seed=N] [--no-deferred]\n"
      "                    [--sim-shards=K]\n"
      "                    [--max-resident-lanes=N]\n"
      "                    [--evict-after-idle-hours=N]\n"
      "                    [--scheduler=fifo|drr|priority]\n"
      "                    [--tenant-budget=GBHR] [--preemption]\n"
      "                    [--spike-queries-per-hour=N]\n"
      "                    [--fault-profile=none|timeouts|conflicts|chaos]\n"
      "                    [--fault-seed=N] [--fault-retries=N]\n"
      "                    [--check-invariants]\n"
      "                    [--trace-level=off|phases|decisions|full]\n"
      "                    [--trace-out=PATH] [--metrics-out=PATH]\n"
      "\n"
      "  --policy=SPEC            composable compaction policy (see\n"
      "                           DESIGN.md §11): four ';'-separated axes,\n"
      "                           e.g. \"trigger=file-count:16;granularity=\"\n"
      "                           \"table;movement=merge;picker=online-merge\"\n"
      "                           Axes: trigger=periodic|file-count[:N]|\n"
      "                           size-ratio[:R]|staleness[:H]|deadline[:H],\n"
      "                           granularity=partition|table|fleet,\n"
      "                           movement=full|partial|merge,\n"
      "                           picker=moop|sorted|greedy-size-ratio|\n"
      "                           online-merge[:K]. Omitted = the legacy\n"
      "                           default pipeline (bit-identical to\n"
      "                           \"trigger=periodic;granularity=table;\"\n"
      "                           \"movement=partial;picker=moop\").\n"
      "                           Requires a --strategy other than none\n"
      "  --sim-shards=K           fleetsim: partition the fleet's tenant\n"
      "                           databases into K deterministic shards\n"
      "                           advanced concurrently on min(K, cores)\n"
      "                           threads; results are bit-identical at\n"
      "                           any K (default 4); K=1 is the\n"
      "                           sequential run\n"
      "  --max-resident-lanes=N   fleetsim: resident-lane budget — before\n"
      "                           each wave of due lanes and after each\n"
      "                           epoch the coldest lanes over the budget\n"
      "                           dehydrate into in-memory checkpoints and\n"
      "                           restore on their next due event (0 =\n"
      "                           unbounded). Lanes due this hour run\n"
      "                           first, so residency can reach N + one\n"
      "                           wave (N, at most 256) + the day's\n"
      "                           onboarded lanes. Results are\n"
      "                           bit-identical at any budget. Requires\n"
      "                           --strategy=none: a control loop keeps\n"
      "                           every lane resident\n"
      "  --evict-after-idle-hours=N  fleetsim: also dehydrate any lane\n"
      "                           idle for N simulated hours (0 = off);\n"
      "                           requires --strategy=none\n"
      "  --scheduler=NAME         fleet maintenance scheduler between\n"
      "                           decide and the deferred executor\n"
      "                           (DESIGN.md §12): fifo (default;\n"
      "                           per-table plan order), drr\n"
      "                           (deficit-round-robin fair share across\n"
      "                           tenant databases), priority (aged\n"
      "                           priority order). Requires deferred mode\n"
      "  --tenant-budget=GBHR     per-tenant daily GBHr budget; queued\n"
      "                           work past the budget is rejected at\n"
      "                           admission until the ledger catches up\n"
      "  --preemption             allow the scheduler to cancel running\n"
      "                           compactions (outputs deleted, unit\n"
      "                           requeued with backoff, burned GBHr\n"
      "                           charged to the tenant)\n"
      "  --spike-queries-per-hour=N  with --preemption: a tenant passing\n"
      "                           N queries in one simulated hour preempts\n"
      "                           its lowest-value running compaction\n"
      "  --fault-profile=NAME     arm the fault injector with a preset\n"
      "                           (storage timeouts, commit conflicts,\n"
      "                           runner crashes...); deterministic for a\n"
      "                           fixed --fault-seed at any shard count\n"
      "  --fault-seed=N           seed for the injector's counter-RNG\n"
      "  --fault-retries=N        bounded retry attempts (with exponential\n"
      "                           backoff) for commit conflicts and runner\n"
      "                           crashes (default 4)\n"
      "  --check-invariants       audit live-file/quota/lineage invariants\n"
      "                           after the run (fleetsim: every epoch)\n"
      "  --trace-level=LEVEL      deterministic tracing detail: phases\n"
      "                           records OODA phase spans, decisions adds\n"
      "                           ranking/winner events, full adds runner\n"
      "                           retries, commit outcomes, fault hits and\n"
      "                           storage timeout draws; the printed digest\n"
      "                           is bit-identical at any shard count\n"
      "  --trace-out=PATH         write the trace as Chrome trace-event\n"
      "                           JSON (open in chrome://tracing)\n"
      "  --metrics-out=PATH       write run metrics in the Prometheus text\n"
      "                           exposition format\n");
}

/// Parses a numeric flag value: the whole of `text` must be one number
/// of type T, finite, and at least `min`. Anything else prints an error
/// naming the flag and returns false (a usage error).
template <typename T>
bool ParseNumber(const char* flag, const char* text, T min, T* out) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  bool ok = ec == std::errc() && ptr == end && value >= min;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::fprintf(stderr, "invalid %s=%s: want %s >= %g\n", flag, text,
                 std::is_integral_v<T> ? "an integer" : "a number",
                 static_cast<double>(min));
    return false;
  }
  *out = value;
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  if (argc < 2) return false;
  flags->scenario = argv[1];
  if (flags->scenario != "cab" && flags->scenario != "fleet" &&
      flags->scenario != "fleetsim") {
    return false;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* name) -> const char* {
      const size_t len = std::strlen(name);
      if (arg.compare(0, len, name) == 0 && arg.size() > len &&
          arg[len] == '=') {
        return arg.c_str() + len + 1;
      }
      return nullptr;
    };
    // Numeric flags: --hours, --days, --databases and --sim-shards must
    // be at least 1, every other numeric flag at least 0.
    bool ok = true;
    if (const char* v = value_of("--strategy")) {
      flags->strategy = v;
    } else if (const char* v = value_of("--policy")) {
      flags->policy = v;
    } else if (const char* v = value_of("--k")) {
      ok = ParseNumber("--k", v, int64_t{0}, &flags->k);
    } else if (const char* v = value_of("--budget")) {
      ok = ParseNumber("--budget", v, 0.0, &flags->budget);
    } else if (const char* v = value_of("--hours")) {
      ok = ParseNumber("--hours", v, 1, &flags->hours);
    } else if (const char* v = value_of("--days")) {
      ok = ParseNumber("--days", v, 1, &flags->days);
    } else if (const char* v = value_of("--databases")) {
      ok = ParseNumber("--databases", v, 1, &flags->databases);
    } else if (const char* v = value_of("--seed")) {
      ok = ParseNumber("--seed", v, uint64_t{0}, &flags->seed);
    } else if (const char* v = value_of("--sim-shards")) {
      ok = ParseNumber("--sim-shards", v, 1, &flags->sim_shards);
    } else if (const char* v = value_of("--max-resident-lanes")) {
      ok = ParseNumber("--max-resident-lanes", v, int64_t{0},
                       &flags->max_resident_lanes);
    } else if (const char* v = value_of("--evict-after-idle-hours")) {
      ok = ParseNumber("--evict-after-idle-hours", v, 0,
                       &flags->evict_after_idle_hours);
    } else if (const char* v = value_of("--scheduler")) {
      flags->scheduler = v;
    } else if (const char* v = value_of("--tenant-budget")) {
      ok = ParseNumber("--tenant-budget", v, 0.0, &flags->tenant_budget);
    } else if (const char* v = value_of("--spike-queries-per-hour")) {
      ok = ParseNumber("--spike-queries-per-hour", v, int64_t{0},
                       &flags->spike_queries_per_hour);
    } else if (const char* v = value_of("--fault-profile")) {
      flags->fault_profile = v;
    } else if (const char* v = value_of("--fault-seed")) {
      ok = ParseNumber("--fault-seed", v, uint64_t{0}, &flags->fault_seed);
    } else if (const char* v = value_of("--fault-retries")) {
      ok = ParseNumber("--fault-retries", v, 0, &flags->fault_retries);
    } else if (const char* v = value_of("--trace-level")) {
      flags->trace_level = v;
    } else if (const char* v = value_of("--trace-out")) {
      flags->trace_out = v;
    } else if (const char* v = value_of("--metrics-out")) {
      flags->metrics_out = v;
    } else if (arg == "--preemption") {
      flags->preemption = true;
    } else if (arg == "--check-invariants") {
      flags->check_invariants = true;
    } else if (arg == "--no-deferred") {
      flags->deferred = false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
    if (!ok) return false;
  }
  return true;
}

/// Parses --policy ("" = stay on the legacy preset path). A malformed
/// spec is a usage error; the message carries the structured parse
/// reason (which axis, which token) so the fix is obvious.
Result<std::optional<core::PolicySpec>> PolicyFor(const Flags& flags) {
  if (flags.policy.empty()) return std::optional<core::PolicySpec>();
  core::PolicySpec::ParseError error;
  auto spec = core::PolicySpec::Parse(flags.policy, &error);
  if (!spec.ok()) {
    std::string detail = "--policy: " + error.reason;
    if (!error.axis.empty()) detail += " on axis '" + error.axis + "'";
    if (!error.token.empty()) detail += " at token '" + error.token + "'";
    return Status::InvalidArgument(detail + " in \"" + flags.policy + "\"");
  }
  return std::optional<core::PolicySpec>(*spec);
}

/// Parses the scheduler knobs. Engaging any of them (--scheduler other
/// than fifo, --tenant-budget, --preemption) requires deferred mode —
/// the scheduler sits between decide and the deferred executor, so a
/// synchronous run would silently ignore it, which is worse than a
/// usage error.
Result<sched::SchedulerOptions> SchedulerFor(const Flags& flags) {
  sched::SchedulerOptions sched_options;
  const auto policy = sched::ParseSchedulerPolicy(flags.scheduler);
  if (!policy) {
    return Status::InvalidArgument("unknown --scheduler: " + flags.scheduler +
                                   " (want fifo|drr|priority)");
  }
  sched_options.policy = *policy;
  sched_options.tenant_budget_gb_hours = flags.tenant_budget;
  sched_options.preemption = flags.preemption;
  sched_options.spike_queries_per_hour = flags.spike_queries_per_hour;
  if (sched_options.Engaged() && !flags.deferred) {
    return Status::InvalidArgument(
        "--scheduler/--tenant-budget/--preemption require deferred mode "
        "(drop --no-deferred)");
  }
  return sched_options;
}

Result<sim::ScopeStrategy> ScopeFor(const std::string& strategy) {
  static const std::map<std::string, sim::ScopeStrategy> kByName = {
      {"table", sim::ScopeStrategy::kTable},
      {"hybrid", sim::ScopeStrategy::kHybrid},
      {"partition", sim::ScopeStrategy::kPartition},
      {"snapshot", sim::ScopeStrategy::kSnapshot},
  };
  const auto it = kByName.find(strategy);
  if (it == kByName.end()) {
    return Status::InvalidArgument("unknown strategy: " + strategy);
  }
  return it->second;
}

/// Environment template honoring the fault knobs. An unknown profile
/// name is a usage error (the Status lists the valid presets).
Result<sim::EnvironmentOptions> EnvOptionsFor(const Flags& flags) {
  sim::EnvironmentOptions env;
  env.retry.max_attempts = flags.fault_retries;
  if (flags.fault_profile != "none") {
    AUTOCOMP_ASSIGN_OR_RETURN(env.fault.profile,
                              fault::FaultProfileByName(flags.fault_profile));
    env.fault.enabled = true;
    env.fault.seed = flags.fault_seed;
  }
  return env;
}

/// Exports the trace / metrics artifacts the flags asked for and prints
/// the one-line trace digest (the golden fingerprint of the run).
int ExportObservability(const Flags& flags, const obs::TraceRecorder* trace,
                        const sim::MetricsRecorder& metrics) {
  if (trace != nullptr) {
    std::printf("trace digest: %s (%lld dropped from ring)\n",
                trace->digest().ToString().c_str(),
                static_cast<long long>(trace->events_dropped()));
    if (!flags.trace_out.empty()) {
      Status s = obs::WriteChromeTrace({trace}, flags.trace_out);
      if (!s.ok()) {
        std::fprintf(stderr, "trace export failed: %s\n",
                     s.ToString().c_str());
        return 1;
      }
      std::printf("trace written to %s\n", flags.trace_out.c_str());
    }
  }
  if (!flags.metrics_out.empty()) {
    Status s = obs::WritePrometheusText(metrics.Snapshot(), flags.metrics_out);
    if (!s.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", flags.metrics_out.c_str());
  }
  return 0;
}

/// Post-run invariant audit for the single-environment scenarios.
int AuditInvariants(sim::SimEnvironment& env) {
  const fault::InvariantChecker checker;
  if (Status s = checker.CheckOrFail(env.catalog()); !s.ok()) {
    std::fprintf(stderr, "invariant audit FAILED: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::printf("invariant audit: OK\n");
  return 0;
}

std::unique_ptr<core::AutoCompService> MakeService(sim::SimEnvironment* env,
                                                   const Flags& flags,
                                                   SimTime interval,
                                                   obs::TraceRecorder* trace) {
  if (flags.strategy == "none") return nullptr;
  auto scope = ScopeFor(flags.strategy);
  AUTOCOMP_CHECK(scope.ok()) << scope.status();
  auto policy = PolicyFor(flags);  // validated in main(); cannot fail here
  AUTOCOMP_CHECK(policy.ok()) << policy.status();
  sim::StrategyPreset preset;
  preset.scope = *scope;
  preset.policy = *policy;
  preset.k = flags.k;
  if (flags.budget > 0) preset.budget_gb_hours = flags.budget;
  preset.trigger_interval = interval;
  preset.first_trigger = interval;
  preset.deferred_act = flags.deferred;
  preset.trace = trace;
  return sim::MakeMoopService(env, preset);
}

void PrintSummary(sim::SimEnvironment& env,
                  const sim::MetricsRecorder& metrics,
                  const core::AutoCompService* service, int64_t initial_files,
                  double total_read_seconds) {
  sim::TablePrinter table({"metric", "value"});
  table.AddRow({"initial files", std::to_string(initial_files)});
  table.AddRow({"final files", std::to_string(env.TotalFileCount())});
  table.AddRow({"open() calls",
                std::to_string(env.dfs().AggregateStats().open_calls)});
  table.AddRow({"open() timeouts",
                std::to_string(env.dfs().AggregateStats().timeouts)});
  table.AddRow({"total read time (h)",
                sim::Fmt(total_read_seconds / 3600.0, 2)});
  table.AddRow(
      {"client conflicts",
       std::to_string(metrics.TotalCount("client_conflicts"))});
  table.AddRow(
      {"cluster conflicts",
       std::to_string(metrics.TotalCount("cluster_conflicts") +
                      env.compaction_runner().total_conflicts())});
  table.AddRow({"compaction commits",
                std::to_string(env.compaction_runner().total_committed())});
  if (service != nullptr) {
    int64_t selected = 0;
    core::PipelinePhaseTimings wall;
    int64_t index_hits = 0;
    int64_t index_fallbacks = 0;
    for (const core::PipelineRunReport& r : service->history()) {
      selected += static_cast<int64_t>(r.selected.size());
      wall.generate_ms += r.timings.generate_ms;
      wall.observe_ms += r.timings.observe_ms;
      wall.orient_ms += r.timings.orient_ms;
      wall.decide_ms += r.timings.decide_ms;
      wall.act_ms += r.timings.act_ms;
      index_hits += r.stats_index_hits;
      index_fallbacks += r.stats_index_fallbacks;
    }
    table.AddRow({"pipeline runs",
                  std::to_string(service->history().size())});
    table.AddRow({"candidates selected", std::to_string(selected)});
    table.AddRow({"pipeline wall-clock (ms)", sim::Fmt(wall.total_ms(), 1)});
    table.AddRow({"  generate (ms)", sim::Fmt(wall.generate_ms, 1)});
    table.AddRow({"  observe (ms)", sim::Fmt(wall.observe_ms, 1)});
    table.AddRow({"  orient (ms)", sim::Fmt(wall.orient_ms, 1)});
    table.AddRow({"  decide (ms)", sim::Fmt(wall.decide_ms, 1)});
    table.AddRow({"  act (ms)", sim::Fmt(wall.act_ms, 1)});
    if (index_hits + index_fallbacks > 0) {
      table.AddRow({"stats index hits", std::to_string(index_hits)});
      table.AddRow(
          {"stats index fallbacks", std::to_string(index_fallbacks)});
    }
  }
  double gbhr = 0;
  for (const sim::SeriesPoint& p : metrics.Series("compaction_gbhr")) {
    gbhr += p.value;
  }
  table.AddRow({"compaction GBHr", sim::Fmt(gbhr, 1)});
  const fault::FaultInjector& injector = env.fault_injector();
  if (injector.enabled()) {
    table.AddRow({"faults injected",
                  std::to_string(injector.total_injected())});
    table.AddRow({"commit/runner retries",
                  std::to_string(env.compaction_runner().total_retries())});
    table.AddRow({"abandoned compactions",
                  std::to_string(env.compaction_runner().total_abandoned())});
    for (const auto& [site, counters] : injector.Counters()) {
      if (counters.injected == 0) continue;
      table.AddRow({"  fault " + site, std::to_string(counters.injected) +
                                           " / " +
                                           std::to_string(counters.hits) +
                                           " hits"});
    }
  }
  std::printf("%s", table.ToString().c_str());
}

int RunCab(const Flags& flags) {
  auto env_options = EnvOptionsFor(flags);
  if (!env_options.ok()) {
    std::fprintf(stderr, "%s\n", env_options.status().ToString().c_str());
    return 2;
  }
  auto trace_level = obs::TraceLevelByName(flags.trace_level);
  if (!trace_level.ok()) {
    std::fprintf(stderr, "%s\n", trace_level.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<obs::TraceRecorder> trace;
  if (*trace_level != obs::TraceLevel::kOff) {
    obs::TraceRecorder::Options trace_options;
    trace_options.level = *trace_level;
    trace = std::make_unique<obs::TraceRecorder>(trace_options);
    env_options->trace = trace.get();
  }
  sim::SimEnvironment env(*env_options);
  workload::CabOptions options;
  options.num_databases = flags.databases;
  options.duration = static_cast<SimTime>(flags.hours) * kHour;
  options.seed = flags.seed;
  workload::CabWorkload cab(options);
  std::printf("loading %d TPC-H-like databases...\n", flags.databases);
  // Scripted data loads treat failures as fatal; injections only arm for
  // the measured run.
  env.fault_injector().set_armed(false);
  for (const std::string& db : cab.DatabaseNames()) {
    Status setup = workload::SetupTpchDatabase(
        &env.catalog(), &env.query_engine(), db, 25 * kGiB,
        engine::UntunedUserJobProfile(), 0);
    if (!setup.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", setup.ToString().c_str());
      return 1;
    }
  }
  env.fault_injector().set_armed(true);
  const int64_t initial = env.TotalFileCount();

  auto service = MakeService(&env, flags, kHour, trace.get());
  sim::MetricsRecorder metrics;
  sim::DriverOptions driver_options;
  driver_options.deferred_compaction = flags.deferred;
  auto sched_options = SchedulerFor(flags);
  if (!sched_options.ok()) {
    std::fprintf(stderr, "%s\n", sched_options.status().ToString().c_str());
    return 2;
  }
  driver_options.scheduler = *sched_options;
  sim::EventDriver driver(&env, &metrics, driver_options);
  if (service != nullptr) driver.AttachService(service.get());

  std::printf("running %dh of CAB streams (strategy=%s, k=%lld%s)...\n",
              flags.hours, flags.strategy.c_str(),
              static_cast<long long>(flags.k),
              flags.budget > 0 ? ", budgeted" : "");
  Status run = driver.Run(cab.GenerateEvents(), options.duration);
  if (!run.ok()) {
    std::fprintf(stderr, "run failed: %s\n", run.ToString().c_str());
    return 1;
  }

  std::printf("\nfile count over time:\n");
  sim::TablePrinter series({"t(min)", "files"});
  const auto& points = metrics.Series("files_total");
  for (size_t i = 0; i < points.size(); i += 3) {
    series.AddRow({std::to_string(points[i].time / kMinute),
                   sim::Fmt(points[i].value, 0)});
  }
  std::printf("%s\n", series.ToString().c_str());
  PrintSummary(env, metrics, service.get(), initial,
               driver.total_read_seconds());
  const int export_rc = ExportObservability(flags, trace.get(), metrics);
  if (flags.check_invariants) {
    if (const int rc = AuditInvariants(env); rc != 0) return rc;
  }
  return export_rc;
}

int RunFleet(const Flags& flags) {
  auto env_options = EnvOptionsFor(flags);
  if (!env_options.ok()) {
    std::fprintf(stderr, "%s\n", env_options.status().ToString().c_str());
    return 2;
  }
  auto trace_level = obs::TraceLevelByName(flags.trace_level);
  if (!trace_level.ok()) {
    std::fprintf(stderr, "%s\n", trace_level.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<obs::TraceRecorder> trace;
  if (*trace_level != obs::TraceLevel::kOff) {
    obs::TraceRecorder::Options trace_options;
    trace_options.level = *trace_level;
    trace = std::make_unique<obs::TraceRecorder>(trace_options);
    env_options->trace = trace.get();
  }
  sim::SimEnvironment env(*env_options);
  workload::FleetOptions options;
  options.seed = flags.seed;
  workload::FleetWorkload fleet(options);
  std::printf("setting up the table fleet...\n");
  // Scripted data loads treat failures as fatal; injections only arm for
  // the measured run (and pause around each day's onboarding below).
  env.fault_injector().set_armed(false);
  Status setup = fleet.Setup(&env.catalog(), &env.query_engine(),
                             &env.control_plane(), 0);
  if (!setup.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", setup.ToString().c_str());
    return 1;
  }
  env.fault_injector().set_armed(true);
  const int64_t initial = env.TotalFileCount();

  auto service = MakeService(&env, flags, kDay, trace.get());
  sim::MetricsRecorder metrics;
  sim::DriverOptions driver_options;
  driver_options.deferred_compaction = flags.deferred;
  driver_options.retention_interval = kDay;
  auto sched_options = SchedulerFor(flags);
  if (!sched_options.ok()) {
    std::fprintf(stderr, "%s\n", sched_options.status().ToString().c_str());
    return 2;
  }
  driver_options.scheduler = *sched_options;
  sim::EventDriver driver(&env, &metrics, driver_options);
  if (service != nullptr) driver.AttachService(service.get());

  std::printf("running %d fleet days (strategy=%s, k=%lld%s)...\n",
              flags.days, flags.strategy.c_str(),
              static_cast<long long>(flags.k),
              flags.budget > 0 ? ", budgeted" : "");
  sim::TablePrinter daily({"day", "fleet files", "compaction commits"});
  int64_t commits_before = 0;
  for (int day = 0; day < flags.days; ++day) {
    env.fault_injector().set_armed(false);
    Status onboard = fleet.OnboardNewTables(&env.catalog(),
                                            &env.query_engine(), day,
                                            env.clock().Now());
    env.fault_injector().set_armed(true);
    if (!onboard.ok()) {
      std::fprintf(stderr, "onboarding failed: %s\n",
                   onboard.ToString().c_str());
      return 1;
    }
    Status run = driver.Run(fleet.EventsForDay(day),
                            static_cast<SimTime>(day + 1) * kDay);
    if (!run.ok()) {
      std::fprintf(stderr, "run failed: %s\n", run.ToString().c_str());
      return 1;
    }
    const int64_t commits = env.compaction_runner().total_committed();
    daily.AddRow({std::to_string(day), std::to_string(env.TotalFileCount()),
                  std::to_string(commits - commits_before)});
    commits_before = commits;
  }
  std::printf("%s\n", daily.ToString().c_str());
  PrintSummary(env, metrics, service.get(), initial,
               driver.total_read_seconds());

  // End-of-run operator report: the §8 write-configuration advisor.
  core::WriteConfigAdvisor advisor;
  auto advice = advisor.Analyze(&env.catalog());
  if (advice.ok() && !advice->empty()) {
    std::printf("\ntop write-configuration recommendations:\n");
    for (size_t i = 0; i < advice->size() && i < 5; ++i) {
      const core::WriteAdvice& a = (*advice)[i];
      std::printf("  [%s] %s: %s\n", core::AdviceKindName(a.kind),
                  a.table.c_str(), a.message.c_str());
    }
  }
  const int export_rc = ExportObservability(flags, trace.get(), metrics);
  if (flags.check_invariants) {
    if (const int rc = AuditInvariants(env); rc != 0) return rc;
  }
  return export_rc;
}

int RunFleetSim(const Flags& flags) {
  // One shard pool worker per shard, capped at the host's cores. One
  // shard is the sequential run: ParallelFor runs a single index inline.
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  ThreadPool pool(std::min(flags.sim_shards, cores));
  sim::FleetSimOptions options;
  options.days = flags.days;
  options.seed = flags.seed;
  options.shards = flags.sim_shards;
  options.pool = &pool;
  options.fleet.num_databases = flags.databases;
  options.fleet.seed = flags.seed;
  options.driver.sample_interval = 4 * kHour;
  options.driver.retention_interval = kDay;
  options.check_invariants = flags.check_invariants;
  options.max_resident_lanes = flags.max_resident_lanes;
  options.evict_after_idle_hours = flags.evict_after_idle_hours;
  auto env_options = EnvOptionsFor(flags);
  if (!env_options.ok()) {
    std::fprintf(stderr, "%s\n", env_options.status().ToString().c_str());
    return 2;
  }
  options.env = *env_options;
  auto trace_level = obs::TraceLevelByName(flags.trace_level);
  if (!trace_level.ok()) {
    std::fprintf(stderr, "%s\n", trace_level.status().ToString().c_str());
    return 2;
  }
  options.trace_level = *trace_level;
  options.trace_out = flags.trace_out;
  auto sched_options = SchedulerFor(flags);
  if (!sched_options.ok()) {
    std::fprintf(stderr, "%s\n", sched_options.status().ToString().c_str());
    return 2;
  }
  options.driver.scheduler = *sched_options;
  if (flags.strategy != "none") {
    // Per-lane AutoComp control loop: every tenant database runs the
    // daily MOOP pipeline inside its own lane.
    auto scope = ScopeFor(flags.strategy);
    AUTOCOMP_CHECK(scope.ok()) << scope.status();
    auto policy = PolicyFor(flags);  // validated in main(); cannot fail here
    AUTOCOMP_CHECK(policy.ok()) << policy.status();
    sim::StrategyPreset preset;
    preset.scope = *scope;
    preset.policy = *policy;
    preset.k = flags.k;
    if (flags.budget > 0) preset.budget_gb_hours = flags.budget;
    preset.trigger_interval = kDay;
    preset.first_trigger = kDay;
    preset.deferred_act = flags.deferred;
    options.driver.deferred_compaction = flags.deferred;
    options.preset = preset;
  }

  std::printf("replaying %d fleet days across %d tenant databases "
              "(shards=%d, pool=%d)...\n",
              flags.days, flags.databases, flags.sim_shards,
              pool.worker_count());
  sim::FleetSimulation simulation(std::move(options));
  const auto start = std::chrono::steady_clock::now();
  auto result = simulation.Run();
  const auto stop = std::chrono::steady_clock::now();
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();

  sim::TablePrinter table({"metric", "value"});
  table.AddRow({"events executed",
                std::to_string(result->events_executed)});
  table.AddRow({"final files", std::to_string(result->total_files)});
  table.AddRow({"open() calls", std::to_string(result->open_calls)});
  table.AddRow({"open() timeouts",
                std::to_string(result->metrics.TotalCount("open_timeouts"))});
  table.AddRow(
      {"write queries",
       std::to_string(result->metrics.TotalCount("write_queries"))});
  table.AddRow(
      {"write failures",
       std::to_string(result->metrics.TotalCount("write_failures"))});
  table.AddRow(
      {"client conflicts",
       std::to_string(result->metrics.TotalCount("client_conflicts"))});
  if (flags.fault_profile != "none") {
    table.AddRow({"faults injected",
                  std::to_string(result->faults_injected)});
    table.AddRow(
        {"commit/runner retries",
         std::to_string(result->metrics.TotalCount("compaction_retries"))});
    table.AddRow(
        {"abandoned compactions",
         std::to_string(result->metrics.TotalCount("compaction_abandoned"))});
  }
  if (flags.check_invariants) {
    table.AddRow({"invariant audits", "OK (every epoch + final)"});
  }
  if (*trace_level != obs::TraceLevel::kOff) {
    table.AddRow({"trace digest", result->trace_digest.ToString()});
  }
  table.AddRow({"lanes hydrated",
                std::to_string(result->lanes_hydrated) + "/" +
                    std::to_string(result->lanes_total) + " (peak resident " +
                    std::to_string(result->peak_resident_lanes) +
                    ", ghosted " + std::to_string(result->lanes_ghosted) +
                    ")"});
  if (flags.max_resident_lanes > 0 || flags.evict_after_idle_hours > 0) {
    table.AddRow({"lanes evicted",
                  std::to_string(result->lanes_evicted) + " (retired early " +
                      std::to_string(result->lanes_retired) + ")"});
    table.AddRow({"lanes restored",
                  std::to_string(result->lanes_restored) + " (" +
                      sim::Fmt(result->restore_ms, 1) + " ms host)"});
    table.AddRow(
        {"checkpoint peak",
         sim::Fmt(static_cast<double>(result->checkpoint_bytes) / kMiB, 2) +
             " MiB"});
  }
  table.AddRow({"setup (ms)", sim::Fmt(result->setup_ms, 1)});
  table.AddRow({"wall-clock (ms)", sim::Fmt(wall_ms, 1)});
  table.AddRow(
      {"events/sec",
       sim::Fmt(wall_ms > 0 ? static_cast<double>(result->events_executed) /
                                  (wall_ms / 1e3)
                            : 0,
                0)});
  std::printf("%s", table.ToString().c_str());
  if (!flags.trace_out.empty() && *trace_level != obs::TraceLevel::kOff) {
    std::printf("trace written to %s\n", flags.trace_out.c_str());
  }
  if (!flags.metrics_out.empty()) {
    Status s = obs::WritePrometheusText(result->metrics.Snapshot(),
                                        flags.metrics_out);
    if (!s.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", flags.metrics_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    PrintUsage();
    return 2;
  }
  if (flags.strategy != "none" && !ScopeFor(flags.strategy).ok()) {
    PrintUsage();
    return 2;
  }
  if (auto policy = PolicyFor(flags); !policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
    return 2;
  }
  // Knob combinations a run would silently ignore are usage errors.
  if (!flags.policy.empty() && flags.strategy == "none") {
    std::fprintf(stderr,
                 "--policy has no effect with --strategy=none (no control "
                 "loop runs); pick a strategy\n");
    return 2;
  }
  if (flags.scenario == "fleetsim" && flags.strategy != "none" &&
      (flags.max_resident_lanes > 0 || flags.evict_after_idle_hours > 0)) {
    std::fprintf(stderr,
                 "--max-resident-lanes/--evict-after-idle-hours have no "
                 "effect with a control loop (--strategy=%s keeps every "
                 "lane resident); use --strategy=none\n",
                 flags.strategy.c_str());
    return 2;
  }
  Logger::set_threshold(LogLevel::kWarn);
  if (flags.scenario == "cab") return RunCab(flags);
  if (flags.scenario == "fleetsim") return RunFleetSim(flags);
  return RunFleet(flags);
}
