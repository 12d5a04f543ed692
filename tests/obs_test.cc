// Unit tests for src/obs: the deterministic trace recorder (ticks, span
// ids, digests, ring semantics, level gating), the Chrome trace-event
// and Prometheus exporters, and the decision audit — recorded ranking
// spans must name exactly the candidate set and winners the pipeline's
// own report does.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/metrics_export.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "sim/environment.h"
#include "sim/metrics.h"
#include "sim/presets.h"
#include "workload/tpch.h"

namespace autocomp::obs {
namespace {

/// All emission-observing tests skip under -DAUTOCOMP_DISABLE_TRACING
/// (enabled() is a constant false and nothing is recorded; the build
/// compiling at all is that configuration's test).
bool TracingCompiledOut() {
  TraceRecorder::Options options;
  options.level = TraceLevel::kFull;
  return !TraceRecorder(options).enabled(TraceLevel::kPhases);
}

TraceRecorder MakeRecorder(TraceLevel level,
                           size_t capacity = TraceRecorder::kDefaultCapacity,
                           const std::string& lane = "main") {
  TraceRecorder::Options options;
  options.level = level;
  options.lane = lane;
  options.capacity = capacity;
  return TraceRecorder(options);
}

// ------------------------------------------------------------- Levels

TEST(TraceLevelTest, NamesRoundTrip) {
  for (const TraceLevel level :
       {TraceLevel::kOff, TraceLevel::kPhases, TraceLevel::kDecisions,
        TraceLevel::kFull}) {
    const auto parsed = TraceLevelByName(TraceLevelName(level));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(TraceLevelByName("verbose").ok());
}

TEST(TraceLevelTest, GatingIsCumulative) {
  if (TracingCompiledOut()) GTEST_SKIP() << "tracing compiled out";
  TraceRecorder decisions = MakeRecorder(TraceLevel::kDecisions);
  EXPECT_TRUE(decisions.enabled(TraceLevel::kPhases));
  EXPECT_TRUE(decisions.enabled(TraceLevel::kDecisions));
  EXPECT_FALSE(decisions.enabled(TraceLevel::kFull));
  // kOff is never "enabled", even on an off recorder.
  EXPECT_FALSE(decisions.enabled(TraceLevel::kOff));
  EXPECT_FALSE(MakeRecorder(TraceLevel::kOff).enabled(TraceLevel::kPhases));
}

TEST(TraceRecorderTest, OffRecorderRecordsNothing) {
  TraceRecorder off = MakeRecorder(TraceLevel::kOff);
  const uint64_t span = off.BeginSpan(TraceLevel::kPhases,
                                      SpanCategory::kPhase, "x", kHour);
  EXPECT_EQ(span, 0u);
  off.EndSpan(span, kHour);  // no-op by contract
  off.Instant(TraceLevel::kFull, SpanCategory::kFault, "y", kHour);
  EXPECT_EQ(off.digest().events, 0);
  EXPECT_TRUE(off.Events().empty());
  // All three calls recorded nothing; guarded call sites never make them.
  EXPECT_EQ(off.unguarded_calls(), 3);
}

TEST(TraceRecorderTest, UnderLevelEventsAreDropped) {
  if (TracingCompiledOut()) GTEST_SKIP() << "tracing compiled out";
  TraceRecorder phases = MakeRecorder(TraceLevel::kPhases);
  phases.Instant(TraceLevel::kFull, SpanCategory::kStorage, "too.detailed",
                 kHour);
  EXPECT_EQ(phases.BeginSpan(TraceLevel::kDecisions, SpanCategory::kDecision,
                             "too.detailed", kHour),
            0u);
  EXPECT_EQ(phases.digest().events, 0);
  phases.Instant(TraceLevel::kPhases, SpanCategory::kPhase, "kept", kHour);
  EXPECT_EQ(phases.digest().events, 1);
  EXPECT_EQ(phases.unguarded_calls(), 2);
}

// -------------------------------------------------------- Ticks / spans

TEST(TraceRecorderTest, TicksAreUniqueAndMonotonic) {
  if (TracingCompiledOut()) GTEST_SKIP() << "tracing compiled out";
  TraceRecorder trace = MakeRecorder(TraceLevel::kFull);
  // Many events at the same simulated instant: sub-ticks must keep every
  // timestamp unique and strictly increasing.
  for (int i = 0; i < 10; ++i) {
    trace.Instant(TraceLevel::kPhases, SpanCategory::kPhase, "tick", kHour);
  }
  const std::vector<TraceEvent> events = trace.Events();
  ASSERT_EQ(events.size(), 10u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].start_tick, events[i - 1].start_tick);
  }
  // Simulated time advancing jumps the tick to sim_seconds * 1e6.
  trace.Instant(TraceLevel::kPhases, SpanCategory::kPhase, "later", 2 * kHour);
  EXPECT_EQ(trace.Events().back().start_tick,
            static_cast<uint64_t>(2 * kHour) * 1'000'000u);
}

TEST(TraceRecorderTest, SpanEndExceedsEverythingEmittedInside) {
  if (TracingCompiledOut()) GTEST_SKIP() << "tracing compiled out";
  TraceRecorder trace = MakeRecorder(TraceLevel::kFull);
  const uint64_t outer = trace.BeginSpan(TraceLevel::kPhases,
                                         SpanCategory::kPhase, "outer", kHour);
  ASSERT_NE(outer, 0u);
  trace.Instant(TraceLevel::kFull, SpanCategory::kRunner, "inside", kHour);
  trace.EndSpan(outer, kHour, 1.0, "outcome=done");
  const std::vector<TraceEvent> events = trace.Events();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& span = events[0].name == std::string("outer")
                               ? events[0]
                               : events[1];
  const TraceEvent& inside = events[0].name == std::string("outer")
                                 ? events[1]
                                 : events[0];
  EXPECT_LE(span.start_tick, inside.start_tick);
  EXPECT_GT(span.end_tick, inside.end_tick);
  EXPECT_NE(span.detail.find("outcome=done"), std::string::npos);
  EXPECT_NE(span.span_id, 0u);
}

TEST(TraceRecorderTest, SpanIdsAreDeterministicPerLane) {
  if (TracingCompiledOut()) GTEST_SKIP() << "tracing compiled out";
  const auto run = [](const std::string& lane) {
    TraceRecorder trace = MakeRecorder(TraceLevel::kFull,
                                       TraceRecorder::kDefaultCapacity, lane);
    const uint64_t s = trace.BeginSpan(TraceLevel::kPhases,
                                       SpanCategory::kPhase, "s", kHour);
    trace.EndSpan(s, kHour);
    return trace.Events().front().span_id;
  };
  EXPECT_EQ(run("tenant000"), run("tenant000"));  // pure function of inputs
  EXPECT_NE(run("tenant000"), run("tenant001"));  // keyed by lane
}

// ------------------------------------------------------------- Digest

TEST(TraceDigestTest, OrderInsensitiveCombine) {
  if (TracingCompiledOut()) GTEST_SKIP() << "tracing compiled out";
  // Two recorders emit the same per-lane streams; digests merged in
  // opposite orders must agree (commutative combine).
  TraceRecorder a1 = MakeRecorder(TraceLevel::kFull, 64, "a");
  TraceRecorder b1 = MakeRecorder(TraceLevel::kFull, 64, "b");
  TraceRecorder a2 = MakeRecorder(TraceLevel::kFull, 64, "a");
  TraceRecorder b2 = MakeRecorder(TraceLevel::kFull, 64, "b");
  for (TraceRecorder* t : {&a1, &a2}) {
    t->Instant(TraceLevel::kFull, SpanCategory::kFault, "f", kHour, "k=1", 2);
  }
  for (TraceRecorder* t : {&b1, &b2}) {
    t->Instant(TraceLevel::kFull, SpanCategory::kCommit, "c", kDay, "k=2", 3);
  }
  const TraceDigest ab = TraceRecorder::MergeDigests({&a1, &b1});
  const TraceDigest ba = TraceRecorder::MergeDigests({&b2, &a2});
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.events, 2);
  EXPECT_EQ(ab.Fingerprint(), ba.Fingerprint());
  EXPECT_NE(ab, TraceDigest{});
}

TEST(TraceDigestTest, SensitiveToContent) {
  if (TracingCompiledOut()) GTEST_SKIP() << "tracing compiled out";
  TraceRecorder a = MakeRecorder(TraceLevel::kFull, 64, "a");
  TraceRecorder b = MakeRecorder(TraceLevel::kFull, 64, "a");
  a.Instant(TraceLevel::kFull, SpanCategory::kFault, "f", kHour, "k=1");
  b.Instant(TraceLevel::kFull, SpanCategory::kFault, "f", kHour, "k=2");
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(a.digest().Fingerprint(), b.digest().Fingerprint());
}

TEST(TraceDigestTest, IndependentOfRingCapacity) {
  if (TracingCompiledOut()) GTEST_SKIP() << "tracing compiled out";
  TraceRecorder big = MakeRecorder(TraceLevel::kFull, 1024);
  TraceRecorder tiny = MakeRecorder(TraceLevel::kFull, 4);
  for (int i = 0; i < 100; ++i) {
    for (TraceRecorder* t : {&big, &tiny}) {
      t->Instant(TraceLevel::kFull, SpanCategory::kStorage, "e", kHour,
                 "i=" + std::to_string(i));
    }
  }
  EXPECT_EQ(big.digest(), tiny.digest());
  EXPECT_EQ(big.events_dropped(), 0);
  EXPECT_EQ(tiny.events_dropped(), 96);
  EXPECT_EQ(tiny.Events().size(), 4u);
  // The ring keeps the newest events, in tick order.
  EXPECT_EQ(tiny.Events().back().detail, "i=99");
  const std::string line = big.digest().ToString();
  EXPECT_NE(line.find("fp="), std::string::npos);
  EXPECT_NE(line.find("events=100"), std::string::npos);
}

// ---------------------------------------------------- Chrome exporter

TEST(ChromeExportTest, ValidNestedJson) {
  if (TracingCompiledOut()) GTEST_SKIP() << "tracing compiled out";
  TraceRecorder lane = MakeRecorder(TraceLevel::kFull, 128, "tenant000");
  const uint64_t run = lane.BeginSpan(TraceLevel::kPhases,
                                      SpanCategory::kPhase, "ooda.run", kHour);
  const uint64_t unit = lane.BeginSpan(TraceLevel::kFull,
                                       SpanCategory::kRunner, "runner.unit",
                                       kHour, "table=db.t");
  lane.Instant(TraceLevel::kFull, SpanCategory::kCommit, "commit.success",
               kHour, "table=db.t;op=replace;snapshot=3", 2);
  lane.EndSpan(unit, kHour, 0.5, "outcome=committed;snapshot=3");
  lane.EndSpan(run, kHour, 1, "ranked=1;selected=1;committed=1");

  const auto parsed = JsonValue::Parse(ChromeTraceJson({&lane}).Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue& doc = *parsed;
  EXPECT_EQ(doc.Get("displayTimeUnit").as_string(), "ms");
  const JsonValue& events = doc.Get("traceEvents");
  ASSERT_EQ(events.type(), JsonValue::Type::kArray);

  std::map<std::string, const JsonValue*> by_name;
  int metadata = 0, complete = 0, instants = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& e = events[i];
    const std::string ph = e.Get("ph").as_string();
    if (ph == "M") {
      ++metadata;
      continue;
    }
    by_name[e.Get("name").as_string()] = &e;
    if (ph == "X") ++complete;
    if (ph == "i") ++instants;
    // Same process, and the lane's track.
    EXPECT_EQ(e.Get("pid").as_int(), 1);
    EXPECT_EQ(e.Get("tid").as_int(), 1);
  }
  EXPECT_GE(metadata, 2);  // process_name + one thread_name per lane
  EXPECT_EQ(complete, 2);
  EXPECT_EQ(instants, 1);

  // Genuine containment: ooda.run ⊇ runner.unit ⊇ commit instant.
  const JsonValue& outer = *by_name.at("ooda.run");
  const JsonValue& inner = *by_name.at("runner.unit");
  const JsonValue& commit = *by_name.at("commit.success");
  const int64_t outer_end = outer.Get("ts").as_int() +
                            outer.Get("dur").as_int();
  const int64_t inner_end = inner.Get("ts").as_int() +
                            inner.Get("dur").as_int();
  EXPECT_LE(outer.Get("ts").as_int(), inner.Get("ts").as_int());
  EXPECT_GT(inner_end, commit.Get("ts").as_int());
  EXPECT_GT(outer_end, inner_end);
  EXPECT_EQ(commit.Get("s").as_string(), "t");
  EXPECT_EQ(inner.Get("cat").as_string(), "runner");
}

TEST(ChromeExportTest, OneThreadTrackPerLane) {
  if (TracingCompiledOut()) GTEST_SKIP() << "tracing compiled out";
  TraceRecorder a = MakeRecorder(TraceLevel::kFull, 16, "tenant000");
  TraceRecorder b = MakeRecorder(TraceLevel::kFull, 16, "tenant001");
  a.Instant(TraceLevel::kPhases, SpanCategory::kPhase, "e", kHour);
  b.Instant(TraceLevel::kPhases, SpanCategory::kPhase, "e", kHour);
  const JsonValue doc = ChromeTraceJson({&a, &b, nullptr});
  int named_threads = 0;
  std::vector<int64_t> event_tids;
  const JsonValue& events = doc.Get("traceEvents");
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& e = events[i];
    if (e.Get("ph").as_string() == "M" &&
        e.Get("name").as_string() == "thread_name") {
      ++named_threads;
    } else if (e.Get("ph").as_string() != "M") {
      event_tids.push_back(e.Get("tid").as_int());
    }
  }
  EXPECT_EQ(named_threads, 2);
  EXPECT_EQ(event_tids, (std::vector<int64_t>{1, 2}));
}

// ------------------------------------------------- Prometheus exporter

TEST(PrometheusExportTest, SanitizesNames) {
  EXPECT_EQ(SanitizeMetricName("read_latency_s"), "read_latency_s");
  EXPECT_EQ(SanitizeMetricName("files.total-live"), "files_total_live");
  EXPECT_EQ(SanitizeMetricName("9lives"), "_9lives");
}

TEST(PrometheusExportTest, TextFormat) {
  MetricsSnapshot snap;
  snap.counters["commit.conflicts"] = 4;
  snap.gauges["files_total"] = 123.0;
  MetricsSnapshot::Summary lat;
  lat.count = 2;
  lat.sum = 3.0;
  lat.min = 1.0;
  lat.max = 2.0;
  snap.summaries["read_latency_s"] = lat;
  const std::string text = ToPrometheusText(snap);
  EXPECT_NE(text.find("# TYPE autocomp_commit_conflicts_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("autocomp_commit_conflicts_total 4"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE autocomp_files_total gauge"),
            std::string::npos);
  EXPECT_NE(text.find("autocomp_read_latency_s_count 2"), std::string::npos);
  EXPECT_NE(text.find("autocomp_read_latency_s_sum 3"), std::string::npos);
  EXPECT_NE(text.find("autocomp_read_latency_s_min 1"), std::string::npos);
  EXPECT_NE(text.find("autocomp_read_latency_s_max 2"), std::string::npos);
}

TEST(PrometheusExportTest, RecorderSnapshotAggregates) {
  sim::MetricsRecorder metrics;
  metrics.Increment("conflicts", kMinute, 2);
  metrics.Increment("conflicts", 3 * kHour, 1);
  metrics.Record("files_total", kHour, 100);
  metrics.Record("files_total", kDay, 90);
  metrics.Observe("lat", kMinute, 1.5);
  metrics.Observe("lat", 2 * kHour, 0.5);
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters.at("conflicts"), 3);
  EXPECT_EQ(snap.gauges.at("files_total"), 90.0);  // last value
  EXPECT_EQ(snap.summaries.at("lat").count, 2);
  EXPECT_DOUBLE_EQ(snap.summaries.at("lat").sum, 2.0);
  EXPECT_DOUBLE_EQ(snap.summaries.at("lat").min, 0.5);
  EXPECT_DOUBLE_EQ(snap.summaries.at("lat").max, 1.5);
}

// ------------------------------------------------------ Decision audit

/// Splits a "key=value;key=value" detail payload.
std::map<std::string, std::string> ParseDetail(const std::string& detail) {
  std::map<std::string, std::string> out;
  size_t pos = 0;
  while (pos < detail.size()) {
    size_t semi = detail.find(';', pos);
    if (semi == std::string::npos) semi = detail.size();
    const std::string pair = detail.substr(pos, semi - pos);
    const size_t eq = pair.find('=');
    if (eq != std::string::npos) {
      out[pair.substr(0, eq)] = pair.substr(eq + 1);
    }
    pos = semi + 1;
  }
  return out;
}

std::string FmtTrait(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// One TPC-H database and a TABLE-3 service that triggers hourly from
/// 1 h on, tracing into `trace` when it is non-null.
std::unique_ptr<core::AutoCompService> MakeAuditService(
    sim::SimEnvironment* env, TraceRecorder* trace) {
  EXPECT_TRUE(workload::SetupTpchDatabase(&env->catalog(), &env->query_engine(),
                                          "db", kGiB,
                                          engine::UntunedUserJobProfile(), 0)
                  .ok());
  sim::StrategyPreset preset;
  preset.scope = sim::ScopeStrategy::kTable;
  preset.k = 3;
  preset.trigger_interval = kHour;
  preset.first_trigger = kHour;
  preset.trace = trace;
  return sim::MakeMoopService(env, preset);
}

/// Hourly cycles at 1 h, 2 h and 3 h driven through Tick; returns the
/// reports those calls returned.
std::vector<core::PipelineRunReport> RunHourlyCycles(
    sim::SimEnvironment* env, core::AutoCompService* service) {
  std::vector<core::PipelineRunReport> reports;
  for (SimTime now = kHour; now <= 3 * kHour; now += kHour) {
    env->clock().AdvanceTo(now);
    auto ran = service->Tick(now);
    EXPECT_TRUE(ran.ok()) << ran.status();
    if (ran.ok() && ran->has_value()) reports.push_back(std::move(**ran));
  }
  return reports;
}

/// The audit: the decide-phase instants recorded by the pipeline must
/// name exactly the candidate set, order, scores, and winners that its
/// own PipelineRunReport carries — the trace is a faithful audit log of
/// the decision, not a parallel reimplementation. The ranking rides only
/// on the report a run returns (history() drops it), so the audit reads
/// the reports Tick returned.
TEST(DecisionAuditTest, RankingSpansMatchPipelineReport) {
  if (TracingCompiledOut()) GTEST_SKIP() << "tracing compiled out";
  TraceRecorder trace = MakeRecorder(TraceLevel::kDecisions);

  sim::SimEnvironment env;
  auto service = MakeAuditService(&env, &trace);
  const std::vector<core::PipelineRunReport> reports =
      RunHourlyCycles(&env, service.get());
  ASSERT_GE(reports.size(), 2u);

  std::vector<TraceEvent> ranked_events;
  std::vector<TraceEvent> winner_events;
  for (const TraceEvent& e : trace.Events()) {
    if (e.name == std::string("decide.ranked")) ranked_events.push_back(e);
    if (e.name == std::string("decide.winner")) winner_events.push_back(e);
  }

  // Events are in emission (tick) order; reports in run order; within a
  // run the pipeline emits ranked instants in rank order, then winners
  // in selection order — so both streams concatenate run by run.
  size_t ri = 0, wi = 0;
  for (const core::PipelineRunReport& report : reports) {
    for (size_t rank = 0; rank < report.ranked.size(); ++rank, ++ri) {
      ASSERT_LT(ri, ranked_events.size());
      const auto kv = ParseDetail(ranked_events[ri].detail);
      EXPECT_EQ(kv.at("id"), report.ranked[rank].candidate().id());
      EXPECT_EQ(kv.at("rank"), std::to_string(rank));
      EXPECT_EQ(ranked_events[ri].value, report.ranked[rank].score);
      EXPECT_EQ(ranked_events[ri].category, SpanCategory::kDecision);
    }
    for (const core::ScoredCandidate& sc : report.selected) {
      ASSERT_LT(wi, winner_events.size());
      const auto kv = ParseDetail(winner_events[wi].detail);
      EXPECT_EQ(kv.at("id"), sc.candidate().id());
      EXPECT_EQ(winner_events[wi].value, sc.score);
      // The full trait vector that scored the winner rides along.
      for (const auto& [trait, value] : sc.traited.traits) {
        ASSERT_TRUE(kv.count(trait)) << "winner missing trait " << trait;
        EXPECT_EQ(kv.at(trait), FmtTrait(value));
      }
      ++wi;
    }
  }
  EXPECT_EQ(ri, ranked_events.size()) << "trace recorded extra rankings";
  EXPECT_EQ(wi, winner_events.size()) << "trace recorded extra winners";
  // The runs ranked something and selected something, or the audit is
  // vacuous.
  EXPECT_GT(ranked_events.size(), 0u);
  EXPECT_GT(winner_events.size(), 0u);
}

/// history() keeps every run's report minus its ranking, so it grows by
/// O(k) per run rather than O(catalog); every other field is the one the
/// Tick or RunNow call returned.
TEST(DecisionAuditTest, HistoryEntriesDropOnlyTheRanking) {
  sim::SimEnvironment env;
  auto service = MakeAuditService(&env, nullptr);
  std::vector<core::PipelineRunReport> reports =
      RunHourlyCycles(&env, service.get());
  auto forced = service->RunNow();
  ASSERT_TRUE(forced.ok()) << forced.status();
  reports.push_back(std::move(*forced));

  const std::vector<core::PipelineRunReport>& history = service->history();
  ASSERT_EQ(history.size(), reports.size());
  size_t ranked = 0, executed = 0, feedback = 0;
  for (size_t run = 0; run < reports.size(); ++run) {
    const core::PipelineRunReport& kept = history[run];
    const core::PipelineRunReport& returned = reports[run];
    const std::string where = "run " + std::to_string(run);
    EXPECT_TRUE(kept.ranked.empty()) << where;
    ranked += returned.ranked.size();

    EXPECT_EQ(kept.started_at, returned.started_at) << where;
    EXPECT_EQ(kept.candidates_generated, returned.candidates_generated)
        << where;
    EXPECT_EQ(kept.dropped_pre_orient, returned.dropped_pre_orient) << where;
    EXPECT_EQ(kept.dropped_post_orient, returned.dropped_post_orient)
        << where;
    ASSERT_EQ(kept.selected.size(), returned.selected.size()) << where;
    for (size_t i = 0; i < kept.selected.size(); ++i) {
      EXPECT_EQ(kept.selected[i].candidate().id(),
                returned.selected[i].candidate().id())
          << where;
      EXPECT_EQ(kept.selected[i].score, returned.selected[i].score) << where;
    }
    ASSERT_EQ(kept.executed.size(), returned.executed.size()) << where;
    executed += kept.executed.size();
    for (size_t i = 0; i < kept.executed.size(); ++i) {
      const engine::CompactionResult& a = kept.executed[i].result;
      const engine::CompactionResult& b = returned.executed[i].result;
      EXPECT_EQ(kept.executed[i].candidate.id(),
                returned.executed[i].candidate.id())
          << where;
      EXPECT_EQ(a.committed, b.committed) << where;
      EXPECT_EQ(a.conflict, b.conflict) << where;
      EXPECT_EQ(a.files_rewritten, b.files_rewritten) << where;
      EXPECT_EQ(a.files_produced, b.files_produced) << where;
      EXPECT_EQ(a.bytes_rewritten, b.bytes_rewritten) << where;
      EXPECT_EQ(a.gb_hours, b.gb_hours) << where;
      EXPECT_EQ(a.snapshot_id, b.snapshot_id) << where;
      EXPECT_EQ(a.end_time, b.end_time) << where;
    }
    ASSERT_EQ(kept.feedback.size(), returned.feedback.size()) << where;
    feedback += kept.feedback.size();
    for (size_t i = 0; i < kept.feedback.size(); ++i) {
      const core::FeedbackEntry& a = kept.feedback[i];
      const core::FeedbackEntry& b = returned.feedback[i];
      EXPECT_EQ(a.candidate_id, b.candidate_id) << where;
      EXPECT_EQ(a.estimated_file_reduction, b.estimated_file_reduction)
          << where;
      EXPECT_EQ(a.actual_file_reduction, b.actual_file_reduction) << where;
      EXPECT_EQ(a.estimated_gb_hours, b.estimated_gb_hours) << where;
      EXPECT_EQ(a.actual_gb_hours, b.actual_gb_hours) << where;
    }
    EXPECT_EQ(kept.timings.generate_ms, returned.timings.generate_ms)
        << where;
    EXPECT_EQ(kept.timings.observe_ms, returned.timings.observe_ms) << where;
    EXPECT_EQ(kept.timings.orient_ms, returned.timings.orient_ms) << where;
    EXPECT_EQ(kept.timings.decide_ms, returned.timings.decide_ms) << where;
    EXPECT_EQ(kept.timings.act_ms, returned.timings.act_ms) << where;
    EXPECT_EQ(kept.stats_index_hits, returned.stats_index_hits) << where;
    EXPECT_EQ(kept.stats_index_fallbacks, returned.stats_index_fallbacks)
        << where;
  }
  // Non-vacuous: the returned reports ranked, and the runs acted.
  EXPECT_GT(ranked, 0u);
  EXPECT_GT(executed, 0u);
  EXPECT_GT(feedback, 0u);
}

}  // namespace
}  // namespace autocomp::obs
