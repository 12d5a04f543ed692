/// \file perf_runner.cc
/// \brief Runs one benchmark workload instance in this process and prints
/// one JSON object describing it on stdout. run.py starts one process per
/// timed run, so each run's peak RSS is its own.
///
/// Usage:
///   perf_runner --workload cab_hybrid|control_loop|fleet_cold
///               [--seed N] [--scale full|smoke] [--trace 0|1]
///               [--sequential] [--spans PATH]
///
/// Every workload is a closed loop: the next call into the simulator is
/// issued only when the previous one returned. The runner measures the
/// layers from outside, through public entry points only:
/// sim::EventDriver::{AdvanceTo,Execute,FinishRun},
/// core::AutoCompService::history(), sim::FleetSimulation::Run,
/// storage::DistributedFileSystem::AggregateStats and
/// sim::MetricsRecorder. With --trace 1 it also records a host span
/// around every call it makes (kept in memory, written to --spans at
/// exit) and turns the program's own deterministic trace on at kFull.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/triggers.h"
#include "engine/write_planner.h"
#include "obs/trace.h"
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

using HostClock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 7;
  bool smoke = false;
  bool trace = false;
  /// fleet_cold only: replay the lanes one after another on the calling
  /// thread (the reference the sharded run must hash-equal).
  bool sequential = false;
  std::string spans_out;
};

/// \brief The benchmark's own host spans: name, start, end, parent and one
/// id per workload event or OODA cycle. Recording is off (every call a
/// no-op) in untraced runs.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), origin_(HostClock::now()) {}

  double NowMs() const {
    return std::chrono::duration<double, std::milli>(HostClock::now() -
                                                     origin_)
        .count();
  }

  /// Opens a span at the current time; returns its index (-1 when off).
  int Open(const char* name, int64_t id, int parent) {
    if (!on_) return -1;
    const double now = NowMs();
    spans_.push_back({name, now, now, parent, id});
    return static_cast<int>(spans_.size()) - 1;
  }

  void Close(int index) {
    if (index >= 0) spans_[index].end_ms = NowMs();
  }

  /// Adds a span whose interval the caller measured some other way (the
  /// pipeline's own per-phase timings).
  void Add(const char* name, double start_ms, double end_ms, int parent,
           int64_t id) {
    if (on_) spans_.push_back({name, start_ms, end_ms, parent, id});
  }

  double StartOf(int index) const {
    return index >= 0 ? spans_[index].start_ms : 0;
  }
  double EndOf(int index) const {
    return index >= 0 ? spans_[index].end_ms : 0;
  }

  /// Per span name: total self time (duration minus the part covered by
  /// direct children) and number of spans.
  std::map<std::string, std::pair<double, int64_t>> SelfTimes() const {
    std::vector<double> child_ms(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ms[s.parent] += s.end_ms - s.start_ms;
    }
    std::map<std::string, std::pair<double, int64_t>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& [self_ms, count] = out[spans_[i].name];
      self_ms += spans_[i].end_ms - spans_[i].start_ms - child_ms[i];
      ++count;
    }
    return out;
  }

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps; args carry the span id and parent index).
  Status Write(const std::string& path) const {
    JsonValue events = JsonValue::Array();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonValue e = JsonValue::Object();
      e.Set("name", s.name);
      e.Set("ph", "X");
      e.Set("pid", 1);
      e.Set("tid", 1);
      e.Set("ts", s.start_ms * 1e3);
      e.Set("dur", (s.end_ms - s.start_ms) * 1e3);
      JsonValue args = JsonValue::Object();
      args.Set("span", static_cast<int64_t>(i));
      args.Set("parent", s.parent);
      args.Set("id", s.id);
      e.Set("args", std::move(args));
      events.Append(std::move(e));
    }
    JsonValue doc = JsonValue::Object();
    doc.Set("traceEvents", std::move(events));
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return Status::Unavailable("cannot open " + path);
    const std::string text = doc.Dump();
    const bool ok = std::fwrite(text.data(), 1, text.size(), out) ==
                    text.size();
    return std::fclose(out) == 0 && ok ? Status::OK()
                                       : Status::Unavailable("write " + path);
  }

 private:
  struct Span {
    const char* name;
    double start_ms;
    double end_ms;
    int parent;
    int64_t id;
  };

  bool on_;
  HostClock::time_point origin_;
  std::vector<Span> spans_;
};

/// Everything one workload instance reports. `counts` holds the
/// deterministic per-layer work counts (always collected; they are cheap).
struct RunOutput {
  JsonValue shape = JsonValue::Object();
  double setup_s = 0;
  double replay_s = 0;
  int64_t events = 0;
  int64_t attempted_ops = 0;
  int64_t failed_ops = 0;
  std::vector<double> cycle_ms;
  int64_t files_end = 0;
  double compaction_gbhr = 0;
  int64_t queries = 0;
  int64_t failed_queries = 0;
  Sample read_latency_s;
  uint64_t hash = 0;
  std::map<std::string, double> counts;
  std::map<std::string, int64_t> program_spans;
};

/// Counts the outcome of one call into the simulator.
void Tally(const Status& status, RunOutput* out) {
  ++out->attempted_ops;
  if (!status.ok()) {
    ++out->failed_ops;
    std::fprintf(stderr, "call failed: %s\n", status.ToString().c_str());
  }
}

/// Turns the pipeline runs that happened during one AdvanceTo into child
/// spans of it: the pipeline's own phase timings, laid back to back so
/// they end where the advance ended.
void RecordNewCycles(const core::AutoCompService* service, size_t* seen,
                     SpanLog* spans, int parent) {
  if (service == nullptr) return;
  const auto& history = service->history();
  if (history.size() <= *seen) return;
  double total = 0;
  for (size_t i = *seen; i < history.size(); ++i) {
    total += history[i].timings.total_ms();
  }
  double at = std::max(spans->StartOf(parent), spans->EndOf(parent) - total);
  for (size_t i = *seen; i < history.size(); ++i) {
    const core::PipelinePhaseTimings& t = history[i].timings;
    const int64_t id = static_cast<int64_t>(i);
    const std::pair<const char*, double> phases[] = {
        {"core.generate", t.generate_ms}, {"core.observe", t.observe_ms},
        {"core.orient", t.orient_ms},     {"core.decide", t.decide_ms},
        {"engine.act", t.act_ms}};
    for (const auto& [name, ms] : phases) {
      const double end = std::min(at + ms, spans->EndOf(parent));
      spans->Add(name, at, end, parent, id);
      at = end;
    }
  }
  *seen = history.size();
}

/// Closed-loop replay of `events` (sorted) through `driver`.
void Replay(sim::EventDriver* driver, const core::AutoCompService* service,
            const std::vector<workload::QueryEvent>& events, int64_t first_id,
            size_t* cycles_seen, SpanLog* spans, int root, RunOutput* out) {
  int64_t id = first_id;
  for (const workload::QueryEvent& event : events) {
    const int advance = spans->Open("sim.advance", id, root);
    Tally(driver->AdvanceTo(event.time), out);
    spans->Close(advance);
    RecordNewCycles(service, cycles_seen, spans, advance);
    const int exec =
        spans->Open(event.is_write ? "engine.write" : "engine.read", id, root);
    Tally(driver->Execute(event), out);
    spans->Close(exec);
    ++id;
  }
  out->events += static_cast<int64_t>(events.size());
}

/// Final advance to the end of the horizon plus FinishRun (deferred
/// rewrites still in flight commit here).
void Finish(sim::EventDriver* driver, const core::AutoCompService* service,
            SimTime end, int64_t id, size_t* cycles_seen, SpanLog* spans,
            int root, RunOutput* out) {
  const int advance = spans->Open("sim.advance", id, root);
  Tally(driver->AdvanceTo(end), out);
  driver->FinishRun();
  spans->Close(advance);
  RecordNewCycles(service, cycles_seen, spans, advance);
}

double Seconds(HostClock::time_point from, HostClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Results common to the two single-environment workloads.
void CollectEnvironment(sim::SimEnvironment& env,
                        const sim::MetricsRecorder& metrics,
                        const core::AutoCompService& service,
                        const storage::NameNodeStats& before,
                        RunOutput* out) {
  int64_t candidates = 0, selected = 0, index_hits = 0, index_fallbacks = 0;
  int64_t sync_commits = 0, sync_conflicts = 0;
  double sync_gbhr = 0;
  for (const core::PipelineRunReport& r : service.history()) {
    out->cycle_ms.push_back(r.timings.total_ms());
    candidates += r.candidates_generated;
    selected += static_cast<int64_t>(r.selected.size());
    index_hits += r.stats_index_hits;
    index_fallbacks += r.stats_index_fallbacks;
    sync_commits += r.committed_count();
    sync_conflicts += r.conflict_count();
    sync_gbhr += r.actual_gb_hours();
  }
  const storage::NameNodeStats after = env.dfs().AggregateStats();
  const int64_t commits =
      metrics.TotalCount("compaction_commits") + sync_commits;
  const int64_t cluster_conflicts =
      metrics.TotalCount("cluster_conflicts") + sync_conflicts;
  out->files_end = env.TotalFileCount();
  out->compaction_gbhr =
      sim::SeriesSum(metrics, "compaction_gbhr") + sync_gbhr;
  out->read_latency_s = metrics.AllObservations("read_latency_s");
  out->queries = metrics.TotalCount("write_queries") +
                 out->read_latency_s.count() +
                 metrics.TotalCount("read_failures");
  out->failed_queries = metrics.TotalCount("write_failures") +
                        metrics.TotalCount("read_failures");
  out->hash = metrics.ContentHash();

  auto& c = out->counts;
  c["engine.read_calls"] = static_cast<double>(
      out->read_latency_s.count() + metrics.TotalCount("read_failures"));
  c["engine.write_calls"] =
      static_cast<double>(metrics.TotalCount("write_queries"));
  c["storage.open_calls"] =
      static_cast<double>(after.open_calls - before.open_calls);
  c["storage.create_calls"] =
      static_cast<double>(after.create_calls - before.create_calls);
  c["storage.delete_calls"] =
      static_cast<double>(after.delete_calls - before.delete_calls);
  c["storage.timeouts"] = static_cast<double>(after.timeouts - before.timeouts);
  c["core.cycles"] = static_cast<double>(service.history().size());
  c["core.candidates"] = static_cast<double>(candidates);
  c["core.selected"] = static_cast<double>(selected);
  c["core.index_hit_ratio"] =
      index_hits + index_fallbacks > 0
          ? static_cast<double>(index_hits) /
                static_cast<double>(index_hits + index_fallbacks)
          : 0;
  c["engine.compaction_commits"] = static_cast<double>(commits);
  c["engine.compaction_abandoned"] =
      static_cast<double>(env.compaction_runner().total_abandoned());
  c["lst.cluster_conflicts"] = static_cast<double>(cluster_conflicts);
  c["lst.client_conflicts"] =
      static_cast<double>(metrics.TotalCount("client_conflicts"));
  c["engine.commit_ratio"] =
      commits + cluster_conflicts > 0
          ? static_cast<double>(commits) /
                static_cast<double>(commits + cluster_conflicts)
          : 0;
}

/// Program trace recorder for traced runs: kFull, with a ring large
/// enough that the span-name counts below see every event of a full-scale
/// run (events_dropped() is reported so a short count is visible).
std::unique_ptr<obs::TraceRecorder> MakeProgramTrace(bool traced) {
  if (!traced) return nullptr;
  obs::TraceRecorder::Options options;
  options.level = obs::TraceLevel::kFull;
  options.capacity = size_t{1} << 20;
  return std::make_unique<obs::TraceRecorder>(options);
}

void CountProgramSpans(const obs::TraceRecorder* trace, RunOutput* out) {
  if (trace == nullptr) return;
  for (const char* name : {"ooda.run", "runner.unit", "commit.success",
                           "commit.conflict", "storage.open_timeout"}) {
    out->program_spans[name] = 0;
  }
  for (const obs::TraceEvent& e : trace->Events()) {
    auto it = out->program_spans.find(e.name);
    if (it != out->program_spans.end()) ++it->second;
  }
  out->program_spans["events_emitted"] = trace->events_emitted();
  out->program_spans["events_dropped"] = trace->events_dropped();
}

/// §6 CAB: 20 TPC-H-like databases, a 5-hour read-heavy stream, Hybrid-50
/// MOOP hourly with deferred act (rewrites race user writes).
RunOutput RunCabHybrid(const Args& args, SpanLog* spans) {
  RunOutput out;
  const auto start = HostClock::now();
  const int root = spans->Open("run", 0, -1);
  const int setup = spans->Open("workload.setup", 0, root);

  std::unique_ptr<obs::TraceRecorder> trace = MakeProgramTrace(args.trace);
  sim::EnvironmentOptions env_options;
  env_options.trace = trace.get();
  sim::SimEnvironment env(env_options);

  workload::CabOptions cab_options;
  cab_options.num_databases = args.smoke ? 2 : 20;
  cab_options.duration = (args.smoke ? 2 : 5) * kHour;
  cab_options.seed = args.seed;
  const int64_t bytes_per_db = (args.smoke ? 4 : 25) * kGiB;
  workload::CabWorkload cab(cab_options);
  for (const std::string& db : cab.DatabaseNames()) {
    Tally(workload::SetupTpchDatabase(&env.catalog(), &env.query_engine(), db,
                                      bytes_per_db,
                                      engine::UntunedUserJobProfile(), 0),
          &out);
  }
  const std::vector<workload::QueryEvent> events = cab.GenerateEvents();

  sim::StrategyPreset preset;
  preset.scope = sim::ScopeStrategy::kHybrid;
  preset.k = 50;
  preset.trigger_interval = kHour;
  preset.first_trigger = kHour;
  preset.deferred_act = true;
  preset.trace = trace.get();
  std::unique_ptr<core::AutoCompService> service =
      sim::MakeMoopService(&env, preset);

  sim::MetricsRecorder metrics;
  sim::DriverOptions driver_options;
  driver_options.sample_interval = 10 * kMinute;
  driver_options.retention_interval = kHour;
  driver_options.deferred_compaction = true;
  driver_options.record_host_timings = false;
  sim::EventDriver driver(&env, &metrics, driver_options);
  driver.AttachService(service.get());
  spans->Close(setup);
  const auto replay_start = HostClock::now();
  out.setup_s = Seconds(start, replay_start);
  const storage::NameNodeStats before = env.dfs().AggregateStats();

  size_t cycles_seen = 0;
  Replay(&driver, service.get(), events, 0, &cycles_seen, spans, root, &out);
  Finish(&driver, service.get(), cab_options.duration,
         static_cast<int64_t>(events.size()), &cycles_seen, spans, root,
         &out);
  out.replay_s = Seconds(replay_start, HostClock::now());
  spans->Close(root);

  CollectEnvironment(env, metrics, *service, before, &out);
  CountProgramSpans(trace.get(), &out);
  out.shape.Set("databases", cab_options.num_databases);
  out.shape.Set("hours", static_cast<int64_t>(cab_options.duration / kHour));
  out.shape.Set("bytes_per_db", bytes_per_db);
  out.shape.Set("events", static_cast<int64_t>(events.size()));
  out.shape.Set("policy", "Hybrid-50 MOOP 0.7/0.3, hourly, deferred act");
  return out;
}

/// OpenHouse's view: one 2,000-table catalog observed by a TABLE-10 MOOP
/// service every hour for 5 days, synchronous act, no pipeline pool.
RunOutput RunControlLoop(const Args& args, SpanLog* spans) {
  RunOutput out;
  const auto start = HostClock::now();
  const int root = spans->Open("run", 0, -1);
  int setup = spans->Open("workload.setup", 0, root);

  std::unique_ptr<obs::TraceRecorder> trace = MakeProgramTrace(args.trace);
  sim::EnvironmentOptions env_options;
  env_options.namenode.rpc_capacity_per_hour = 2'000;
  env_options.trace = trace.get();
  sim::SimEnvironment env(env_options);

  workload::FleetOptions fleet_options;
  fleet_options.num_databases = args.smoke ? 4 : 40;
  fleet_options.tables_per_db = args.smoke ? 10 : 50;
  fleet_options.size_mu = std::log(128.0 * kMiB);
  fleet_options.size_sigma = 1.2;
  fleet_options.seed = args.seed;
  const int days = args.smoke ? 1 : 5;
  workload::FleetWorkload fleet(fleet_options);
  Tally(fleet.Setup(&env.catalog(), &env.query_engine(), &env.control_plane(),
                    0),
        &out);

  sim::StrategyPreset preset;
  preset.scope = sim::ScopeStrategy::kTable;
  preset.k = 10;
  preset.trigger_interval = kHour;
  preset.first_trigger = kHour;
  preset.deferred_act = false;
  preset.pool = nullptr;
  preset.trace = trace.get();
  std::unique_ptr<core::AutoCompService> service =
      sim::MakeMoopService(&env, preset);

  sim::MetricsRecorder metrics;
  sim::DriverOptions driver_options;
  driver_options.sample_interval = 4 * kHour;
  driver_options.retention_interval = kDay;
  driver_options.record_host_timings = false;
  sim::EventDriver driver(&env, &metrics, driver_options);
  driver.AttachService(service.get());

  size_t cycles_seen = 0;
  int64_t id = 0;
  HostClock::time_point replay_start;
  storage::NameNodeStats before;
  for (int day = 0; day < days; ++day) {
    // Day 0's onboarding and events are part of set-up (everything before
    // the first workload event); later days' generation is timed as the
    // workload layer inside the replay.
    if (day > 0) setup = spans->Open("workload.gen", id, root);
    Tally(fleet.OnboardNewTables(&env.catalog(), &env.query_engine(), day,
                                 env.clock().Now()),
          &out);
    const std::vector<workload::QueryEvent> events = fleet.EventsForDay(day);
    spans->Close(setup);
    if (day == 0) {
      replay_start = HostClock::now();
      out.setup_s = Seconds(start, replay_start);
      before = env.dfs().AggregateStats();
    }
    Replay(&driver, service.get(), events, id, &cycles_seen, spans, root,
           &out);
    id += static_cast<int64_t>(events.size());
    const int advance = spans->Open("sim.advance", id, root);
    Tally(driver.AdvanceTo(static_cast<SimTime>(day + 1) * kDay), &out);
    spans->Close(advance);
    RecordNewCycles(service.get(), &cycles_seen, spans, advance);
  }
  Finish(&driver, service.get(), static_cast<SimTime>(days) * kDay, id,
         &cycles_seen, spans, root, &out);
  out.replay_s = Seconds(replay_start, HostClock::now());
  spans->Close(root);

  CollectEnvironment(env, metrics, *service, before, &out);
  CountProgramSpans(trace.get(), &out);
  out.shape.Set("databases", fleet_options.num_databases);
  out.shape.Set("tables_per_db", fleet_options.tables_per_db);
  out.shape.Set("median_table_mib", 128);
  out.shape.Set("days", days);
  out.shape.Set("policy", "Table-10 MOOP 0.7/0.3, hourly, synchronous act");
  return out;
}

/// Cold fleet: 20,000 one-table tenant lanes over 7 days with fixed
/// fleet-wide activity, no control loop, a 256-lane residency budget plus
/// a 12 h idle rule, replayed as 4 shards on a 3-worker pool (or
/// sequentially with --sequential).
RunOutput RunFleetCold(const Args& args, SpanLog* spans) {
  RunOutput out;
  const int tables = args.smoke ? 400 : 20'000;
  sim::FleetSimOptions options;
  options.days = args.smoke ? 2 : 7;
  options.seed = args.seed;
  options.fleet.seed = args.seed;
  options.fleet.num_databases = tables;
  options.fleet.tables_per_db = 1;
  options.fleet.size_mu = std::log(128.0 * kMiB);
  options.fleet.size_sigma = 1.2;
  // Fleet-wide activity is fixed, not proportional to the lane count.
  const double daily_writes = args.smoke ? 100 : 1000;
  const double daily_reads = args.smoke ? 25 : 250;
  options.fleet.daily_write_fraction = daily_writes / tables;
  options.fleet.daily_reads_per_table = daily_reads / tables;
  options.fleet.new_tables_per_day = 20;
  options.env.namenode.rpc_capacity_per_hour = tables;
  options.driver.sample_interval = 12 * kHour;
  options.driver.retention_interval = kDay;
  options.driver.record_host_timings = false;
  options.max_resident_lanes = args.smoke ? 16 : 256;
  options.evict_after_idle_hours = 12;
  // The caller plus the pool's workers never exceed the host's cores.
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int workers = std::min(3, cores - 1);
  std::unique_ptr<ThreadPool> pool;
  if (!args.sequential && workers > 0) {
    pool = std::make_unique<ThreadPool>(workers);
  }
  options.sharded = !args.sequential;
  options.shards = args.sequential ? 1 : 4;
  options.pool = pool.get();
  out.shape.Set("lanes", tables);
  out.shape.Set("days", options.days);
  out.shape.Set("daily_writes", daily_writes);
  out.shape.Set("daily_reads", daily_reads);
  out.shape.Set("max_resident_lanes", options.max_resident_lanes);
  out.shape.Set("evict_after_idle_hours", options.evict_after_idle_hours);
  out.shape.Set("shards", options.shards);
  out.shape.Set("pool_workers", pool != nullptr ? workers : 0);

  const int root = spans->Open("run", 0, -1);
  const int run = spans->Open("sim.run", 0, root);
  const auto start = HostClock::now();
  sim::FleetSimulation simulation(std::move(options));
  Result<sim::FleetSimResult> result = simulation.Run();
  const double wall_s = Seconds(start, HostClock::now());
  spans->Close(run);
  spans->Close(root);
  Tally(result.status(), &out);
  if (!result.ok()) return out;
  const sim::FleetSimResult& r = *result;
  // Set-up (descriptor construction and workload planning) happens at
  // the start of Run().
  spans->Add("workload.setup", spans->StartOf(run),
             spans->StartOf(run) + r.setup_ms, run, 0);
  out.setup_s = r.setup_ms / 1e3;
  out.replay_s = wall_s - out.setup_s;
  out.events = r.events_executed;
  out.attempted_ops += r.events_executed;
  out.files_end = r.total_files;
  out.read_latency_s = r.metrics.AllObservations("read_latency_s");
  out.queries = r.metrics.TotalCount("write_queries") +
                out.read_latency_s.count() +
                r.metrics.TotalCount("read_failures");
  out.failed_queries = r.metrics.TotalCount("write_failures") +
                       r.metrics.TotalCount("read_failures");
  out.compaction_gbhr = sim::SeriesSum(r.metrics, "compaction_gbhr");
  out.hash = r.metrics.ContentHash();

  auto& c = out.counts;
  c["engine.read_calls"] = static_cast<double>(
      out.read_latency_s.count() + r.metrics.TotalCount("read_failures"));
  c["engine.write_calls"] =
      static_cast<double>(r.metrics.TotalCount("write_queries"));
  c["storage.open_calls"] = static_cast<double>(r.open_calls);
  c["storage.timeouts"] =
      static_cast<double>(r.metrics.TotalCount("open_timeouts"));
  c["lst.client_conflicts"] =
      static_cast<double>(r.metrics.TotalCount("client_conflicts"));
  c["sim.lanes_hydrated"] = static_cast<double>(r.lanes_hydrated);
  c["sim.hydrated_ratio"] =
      r.lanes_total > 0 ? static_cast<double>(r.lanes_hydrated) /
                              static_cast<double>(r.lanes_total)
                        : 0;
  c["sim.peak_resident_lanes"] = static_cast<double>(r.peak_resident_lanes);
  c["sim.lanes_evicted"] = static_cast<double>(r.lanes_evicted);
  c["sim.lanes_restored"] = static_cast<double>(r.lanes_restored);
  c["sim.lanes_retired"] = static_cast<double>(r.lanes_retired);
  c["sim.restore_ms"] = r.restore_ms;
  c["sim.checkpoint_bytes"] = static_cast<double>(r.checkpoint_bytes);
  return out;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      char* end = nullptr;
      args->seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return false;
    } else if (flag == "--scale" && has_value) {
      const std::string scale = argv[++i];
      if (scale != "full" && scale != "smoke") return false;
      args->smoke = scale == "smoke";
    } else if (flag == "--trace" && has_value) {
      const std::string trace = argv[++i];
      if (trace != "0" && trace != "1") return false;
      args->trace = trace == "1";
    } else if (flag == "--sequential") {
      args->sequential = true;
    } else if (flag == "--spans" && has_value) {
      args->spans_out = argv[++i];
    } else {
      return false;
    }
  }
  return args->workload == "cab_hybrid" || args->workload == "control_loop" ||
         args->workload == "fleet_cold";
}

JsonValue ToJson(const Args& args, const RunOutput& out, const SpanLog& spans) {
  JsonValue doc = JsonValue::Object();
  doc.Set("workload", args.workload);
  doc.Set("seed", static_cast<int64_t>(args.seed));
  doc.Set("scale", args.smoke ? "smoke" : "full");
  doc.Set("sequential", args.sequential);
  doc.Set("shape", out.shape);
  doc.Set("setup_s", out.setup_s);
  doc.Set("replay_s", out.replay_s);
  doc.Set("events", out.events);
  doc.Set("attempted_ops", out.attempted_ops);
  doc.Set("failed_ops", out.failed_ops);
  JsonValue cycles = JsonValue::Array();
  for (double ms : out.cycle_ms) cycles.Append(ms);
  doc.Set("cycle_ms", std::move(cycles));
  doc.Set("files_end", out.files_end);
  doc.Set("compaction_gbhr", out.compaction_gbhr);
  doc.Set("queries", out.queries);
  doc.Set("failed_queries", out.failed_queries);
  JsonValue reads = JsonValue::Array();
  for (double s : out.read_latency_s.values()) reads.Append(s);
  doc.Set("read_s", std::move(reads));
  char hash[17];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(out.hash));
  doc.Set("hash", hash);
  JsonValue counts = JsonValue::Object();
  for (const auto& [name, value] : out.counts) counts.Set(name, value);
  doc.Set("counts", std::move(counts));
  if (args.trace) {
    JsonValue self = JsonValue::Object();
    for (const auto& [name, entry] : spans.SelfTimes()) {
      JsonValue e = JsonValue::Object();
      e.Set("self_ms", entry.first);
      e.Set("spans", entry.second);
      self.Set(name, std::move(e));
    }
    doc.Set("self_times", std::move(self));
    JsonValue program = JsonValue::Object();
    for (const auto& [name, n] : out.program_spans) program.Set(name, n);
    doc.Set("program_spans", std::move(program));
  }
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perf_runner --workload "
                 "cab_hybrid|control_loop|fleet_cold [--seed N] "
                 "[--scale full|smoke] [--trace 0|1] [--sequential] "
                 "[--spans PATH]\n");
    return 2;
  }
  SpanLog spans(args.trace);
  RunOutput out;
  if (args.workload == "cab_hybrid") {
    out = RunCabHybrid(args, &spans);
  } else if (args.workload == "control_loop") {
    out = RunControlLoop(args, &spans);
  } else {
    out = RunFleetCold(args, &spans);
  }
  if (args.trace && !args.spans_out.empty()) {
    Status written = spans.Write(args.spans_out);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }
  std::printf("%s\n", ToJson(args, out, spans).Dump().c_str());
  return out.failed_ops == 0 ? 0 : 1;
}
