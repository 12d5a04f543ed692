/// \file trace.h
/// \brief Deterministic per-lane tracing: spans, instants, digests.
///
/// The simulator's runs are bit-identical across shard counts and pool
/// sizes (NFR2), which makes a structured trace a perfect regression
/// oracle: if every recorded event is a pure function of simulated
/// state — virtual-clock timestamps, counter-derived span ids, no wall
/// clock anywhere — then the trace of a fixed-seed run is a constant,
/// and a one-line digest of it catches any behavioural drift in the
/// whole stack (golden-trace tests).
///
/// Model:
///  * One TraceRecorder per lane (tenant database in the fleet driver,
///    "main" for single-environment scenarios). Emission within a lane
///    is serial — the lane's events replay on one logical timeline even
///    when different epochs run on different pool threads (the epoch
///    barrier orders them).
///  * Timestamps are virtual microsecond ticks derived from the
///    simulated clock: tick = max(sim_seconds * 1e6, last_tick + 1).
///    Simulated time is integer seconds and does not advance inside a
///    pipeline run, so the +1 sub-ticks give every event a unique,
///    strictly increasing timestamp; a span's end tick therefore always
///    exceeds the ticks of everything emitted while it was open, which
///    is exactly the containment Chrome's trace viewer needs to nest
///    "X" complete events.
///  * Span ids are CounterRng::At(lane key, hour epoch, sequence) — a
///    pure function of (lane, epoch, per-lane emission sequence), never
///    of wall clock or addresses.
///  * The ring buffer only bounds what the exporters can see; the
///    TraceDigest is accumulated at emission with a commutative combine
///    (count + wrapping sum + xor of per-event content hashes), so it
///    covers every event ever emitted, is independent of ring capacity,
///    and merges across lanes like MetricsRecorder::Merge.
///
/// Disabled path: a null recorder pointer or TraceLevel::kOff costs one
/// predictable branch per site. Call sites guard BeginSpan and Instant
/// with `trace != nullptr && trace->enabled(level)`, and EndSpan with
/// `handle != 0`, so a recorder below a site's level is never called
/// and no detail string is built for it (unguarded_calls() counts the
/// calls that slip through). Compiling with
/// -DAUTOCOMP_DISABLE_TRACING=ON folds enabled() to a constant false,
/// dead-coding every emission call site out of the binary entirely.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/counter_rng.h"
#include "common/status.h"
#include "common/units.h"

namespace autocomp::obs {

/// \brief How much detail to record. Levels are cumulative: kFull
/// records everything kDecisions does plus the per-event firehose.
enum class TraceLevel : int {
  kOff = 0,
  /// OODA phase spans + pipeline run envelopes.
  kPhases = 1,
  /// + per-candidate ranking / winner-selection decision events.
  kDecisions = 2,
  /// + runner attempts/retries, commit outcomes, fault injections,
  /// storage timeout draws.
  kFull = 3,
};

const char* TraceLevelName(TraceLevel level);
/// Parses "off" | "phases" | "decisions" | "full" (the CLI knob).
Result<TraceLevel> TraceLevelByName(std::string_view name);

/// \brief Span taxonomy (the Chrome exporter's "cat" field).
enum class SpanCategory : int {
  kPhase = 0,    // OODA phases + pipeline run envelope
  kDecision,     // ranking / selection decisions
  kRunner,       // compaction work units, retries, backoffs
  kCommit,       // Transaction::Commit outcomes
  kFault,        // fault-injector hits
  kStorage,      // NameNode timeout draws / quota rejections
};

const char* SpanCategoryName(SpanCategory category);

/// \brief One recorded event. start_tick == end_tick for instants.
struct TraceEvent {
  uint64_t span_id = 0;
  SpanCategory category = SpanCategory::kPhase;
  /// Static-storage name (call sites pass string literals).
  const char* name = "";
  /// "key=value;key=value" payload. Must be a pure function of simulated
  /// state — never wall clock, addresses, or host properties.
  std::string detail;
  uint64_t start_tick = 0;
  uint64_t end_tick = 0;
  double value = 0;
};

/// \brief Order-insensitive fingerprint of a set of trace events.
///
/// Combine is commutative and associative (count + wrapping sum + xor
/// of content hashes), so per-lane digests merge in any order to the
/// same value and the digest does not depend on ring capacity or on the
/// interleaving of emission. Two digests being equal is (modulo hash
/// collisions) the statement "these runs emitted the same multiset of
/// events" — the golden-trace tests' oracle.
struct TraceDigest {
  int64_t events = 0;
  uint64_t sum = 0;
  uint64_t xr = 0;

  void Combine(const TraceDigest& other) {
    events += other.events;
    sum += other.sum;
    xr ^= other.xr;
  }
  bool operator==(const TraceDigest& other) const {
    return events == other.events && sum == other.sum && xr == other.xr;
  }
  bool operator!=(const TraceDigest& other) const { return !(*this == other); }

  /// All three accumulators mixed into one 64-bit fingerprint.
  uint64_t Fingerprint() const;
  /// "fp=<16 hex> events=<n>" — the one-line run fingerprint.
  std::string ToString() const;
};

/// \brief Per-lane recorder. See the file comment for the model.
class TraceRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 15;

  struct Options {
    TraceLevel level = TraceLevel::kOff;
    /// Lane name: the tenant database for fleet lanes, "main" otherwise.
    /// Keys the span-id stream and names the exporter's thread track.
    std::string lane = "main";
    /// Ring capacity in events; bounds exporter memory only (the digest
    /// always covers every emitted event). 0 keeps the digest but
    /// retains no events.
    size_t capacity = kDefaultCapacity;
  };

  // No default argument: gcc cannot use a nested class with default
  // member initializers as a default argument (PR c++/96645).
  TraceRecorder();
  explicit TraceRecorder(Options options);

  /// True when events at `need` should be recorded. Call sites guard
  /// emission (and the construction of detail strings) with this; under
  /// AUTOCOMP_DISABLE_TRACING it is a constant false and the guarded
  /// block compiles to nothing.
#ifdef AUTOCOMP_DISABLE_TRACING
  bool enabled(TraceLevel) const { return false; }
#else
  bool enabled(TraceLevel need) const {
    return static_cast<int>(options_.level) >= static_cast<int>(need) &&
           need != TraceLevel::kOff;
  }
#endif

  /// Opens a span at simulated time `now`. Returns an opaque handle for
  /// EndSpan: slot + 1 while the span records, 0 when not recording.
  /// EndSpan(0, ...) is a no-op; call sites skip it on a zero handle, so
  /// a span's outcome string is only built when the span records.
  uint64_t BeginSpan(TraceLevel need, SpanCategory category, const char* name,
                     SimTime now, std::string detail = {});

  /// Closes a span. `outcome` (e.g. "outcome=committed;snapshot=42") is
  /// appended to the Begin detail; `at` may lie in the simulated future
  /// (deferred compaction units end at their natural end_time).
  void EndSpan(uint64_t handle, SimTime at, double value = 0,
               std::string outcome = {});

  /// Records a zero-duration event.
  void Instant(TraceLevel need, SpanCategory category, const char* name,
               SimTime now, std::string detail = {}, double value = 0);

  /// Digest over every event emitted so far (capacity-independent).
  TraceDigest digest() const;

  /// Events retained in the ring, in start-tick order. When more than
  /// `capacity` events were emitted, only the newest survive.
  std::vector<TraceEvent> Events() const;

  int64_t events_emitted() const {
    return digest_events_.load(std::memory_order_relaxed);
  }
  /// Events that fell out of the ring (emitted - retained).
  int64_t events_dropped() const;

  /// Calls that could record nothing: BeginSpan and Instant below the
  /// recorder's level, and EndSpan(0, ...). Guarded call sites never
  /// make them, so this stays 0 at every level; a nonzero count means
  /// some site paid for a call (and its detail string) the recorder
  /// threw away.
  int64_t unguarded_calls() const { return unguarded_calls_; }

  const std::string& lane() const { return options_.lane; }
  TraceLevel level() const { return options_.level; }

  /// Lane digests combined in any order — same semantics as
  /// MetricsRecorder::Merge but commutative, so shard scheduling cannot
  /// matter even in principle.
  static TraceDigest MergeDigests(
      const std::vector<const TraceRecorder*>& lanes);

 private:
  struct OpenSpan {
    SpanCategory category = SpanCategory::kPhase;
    const char* name = "";
    std::string detail;
    uint64_t start_tick = 0;
    uint64_t span_id = 0;
    bool active = false;
  };

  /// Next virtual timestamp: unique and strictly increasing per lane.
  uint64_t NextTick(SimTime now);
  uint64_t NextSpanId(uint64_t start_tick);
  void Emit(TraceEvent event);
  uint64_t EventHash(const TraceEvent& event) const;

  Options options_;
  uint64_t lane_key_ = 0;
  uint64_t last_tick_ = 0;
  uint64_t sequence_ = 0;
  int64_t unguarded_calls_ = 0;
  std::vector<OpenSpan> open_;
  std::vector<size_t> free_slots_;
  /// Ring storage, lazily sized to capacity on first emission.
  std::vector<TraceEvent> ring_;
  std::atomic<uint64_t> cursor_{0};
  /// Digest accumulators (commutative, so safe even if emission ever
  /// races; today emission is serial per lane).
  std::atomic<int64_t> digest_events_{0};
  std::atomic<uint64_t> digest_sum_{0};
  std::atomic<uint64_t> digest_xor_{0};
};

}  // namespace autocomp::obs
