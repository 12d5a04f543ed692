#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace autocomp::obs {

const char* TraceLevelName(TraceLevel level) {
  switch (level) {
    case TraceLevel::kOff:
      return "off";
    case TraceLevel::kPhases:
      return "phases";
    case TraceLevel::kDecisions:
      return "decisions";
    case TraceLevel::kFull:
      return "full";
  }
  return "unknown";
}

Result<TraceLevel> TraceLevelByName(std::string_view name) {
  if (name == "off") return TraceLevel::kOff;
  if (name == "phases") return TraceLevel::kPhases;
  if (name == "decisions") return TraceLevel::kDecisions;
  if (name == "full") return TraceLevel::kFull;
  return Status::InvalidArgument(
      "unknown trace level '" + std::string(name) +
      "' (valid: off, phases, decisions, full)");
}

const char* SpanCategoryName(SpanCategory category) {
  switch (category) {
    case SpanCategory::kPhase:
      return "phase";
    case SpanCategory::kDecision:
      return "decision";
    case SpanCategory::kRunner:
      return "runner";
    case SpanCategory::kCommit:
      return "commit";
    case SpanCategory::kFault:
      return "fault";
    case SpanCategory::kStorage:
      return "storage";
  }
  return "unknown";
}

uint64_t TraceDigest::Fingerprint() const {
  return CounterRng::Mix(
      CounterRng::Mix(static_cast<uint64_t>(events) ^ CounterRng::Mix(sum)) ^
      CounterRng::Mix(xr));
}

std::string TraceDigest::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "fp=%016llx events=%lld",
                static_cast<unsigned long long>(Fingerprint()),
                static_cast<long long>(events));
  return buf;
}

TraceRecorder::TraceRecorder() : TraceRecorder(Options{}) {}

TraceRecorder::TraceRecorder(Options options)
    : options_(std::move(options)),
      lane_key_(CounterRng::HashString(options_.lane)) {}

uint64_t TraceRecorder::NextTick(SimTime now) {
  const uint64_t base =
      now > 0 ? static_cast<uint64_t>(now) * 1'000'000ULL : 0;
  last_tick_ = std::max(base, last_tick_ + 1);
  return last_tick_;
}

uint64_t TraceRecorder::NextSpanId(uint64_t start_tick) {
  const uint64_t epoch = start_tick / (static_cast<uint64_t>(kHour) * 1'000'000ULL);
  return CounterRng::At(lane_key_, epoch, sequence_++);
}

uint64_t TraceRecorder::BeginSpan(TraceLevel need, SpanCategory category,
                                  const char* name, SimTime now,
                                  std::string detail) {
  if (!enabled(need)) {
    ++unguarded_calls_;
    return 0;
  }
  OpenSpan span;
  span.category = category;
  span.name = name;
  span.detail = std::move(detail);
  span.start_tick = NextTick(now);
  span.span_id = NextSpanId(span.start_tick);
  span.active = true;
  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    open_[slot] = std::move(span);
  } else {
    slot = open_.size();
    open_.push_back(std::move(span));
  }
  return static_cast<uint64_t>(slot) + 1;
}

void TraceRecorder::EndSpan(uint64_t handle, SimTime at, double value,
                            std::string outcome) {
  if (handle == 0) {
    ++unguarded_calls_;
    return;
  }
  const size_t slot = static_cast<size_t>(handle - 1);
  if (slot >= open_.size() || !open_[slot].active) return;
  OpenSpan span = std::move(open_[slot]);
  open_[slot].active = false;
  free_slots_.push_back(slot);

  TraceEvent event;
  event.span_id = span.span_id;
  event.category = span.category;
  event.name = span.name;
  event.detail = std::move(span.detail);
  if (!outcome.empty()) {
    if (!event.detail.empty()) event.detail += ';';
    event.detail += outcome;
  }
  event.start_tick = span.start_tick;
  event.end_tick = NextTick(at);
  event.value = value;
  Emit(std::move(event));
}

void TraceRecorder::Instant(TraceLevel need, SpanCategory category,
                            const char* name, SimTime now, std::string detail,
                            double value) {
  if (!enabled(need)) {
    ++unguarded_calls_;
    return;
  }
  TraceEvent event;
  event.category = category;
  event.name = name;
  event.detail = std::move(detail);
  event.start_tick = NextTick(now);
  event.end_tick = event.start_tick;
  event.span_id = NextSpanId(event.start_tick);
  event.value = value;
  Emit(std::move(event));
}

uint64_t TraceRecorder::EventHash(const TraceEvent& event) const {
  uint64_t h = lane_key_;
  h = CounterRng::Mix(h ^ CounterRng::HashString(event.name));
  h = CounterRng::Mix(h ^ static_cast<uint64_t>(event.category));
  h = CounterRng::Mix(h ^ event.start_tick);
  h = CounterRng::Mix(h ^ event.end_tick);
  h = CounterRng::Mix(h ^ CounterRng::HashString(event.detail));
  uint64_t value_bits = 0;
  static_assert(sizeof(value_bits) == sizeof(event.value));
  std::memcpy(&value_bits, &event.value, sizeof(value_bits));
  h = CounterRng::Mix(h ^ value_bits);
  return CounterRng::Mix(h ^ event.span_id);
}

void TraceRecorder::Emit(TraceEvent event) {
  const uint64_t hash = EventHash(event);
  digest_events_.fetch_add(1, std::memory_order_relaxed);
  digest_sum_.fetch_add(hash, std::memory_order_relaxed);
  digest_xor_.fetch_xor(hash, std::memory_order_relaxed);
  if (options_.capacity == 0) return;
  if (ring_.empty()) ring_.resize(options_.capacity);
  const uint64_t slot = cursor_.fetch_add(1, std::memory_order_relaxed);
  ring_[static_cast<size_t>(slot % options_.capacity)] = std::move(event);
}

TraceDigest TraceRecorder::digest() const {
  TraceDigest d;
  d.events = digest_events_.load(std::memory_order_relaxed);
  d.sum = digest_sum_.load(std::memory_order_relaxed);
  d.xr = digest_xor_.load(std::memory_order_relaxed);
  return d;
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::vector<TraceEvent> events;
  const uint64_t written = cursor_.load(std::memory_order_relaxed);
  if (written == 0 || options_.capacity == 0) return events;
  const uint64_t retained =
      std::min<uint64_t>(written, static_cast<uint64_t>(options_.capacity));
  events.reserve(static_cast<size_t>(retained));
  // Oldest retained event first (the ring overwrites in emission order).
  for (uint64_t i = written - retained; i < written; ++i) {
    events.push_back(ring_[static_cast<size_t>(i % options_.capacity)]);
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_tick < b.start_tick;
            });
  return events;
}

int64_t TraceRecorder::events_dropped() const {
  const int64_t emitted = events_emitted();
  const int64_t capacity = static_cast<int64_t>(options_.capacity);
  return emitted > capacity ? emitted - capacity : 0;
}

TraceDigest TraceRecorder::MergeDigests(
    const std::vector<const TraceRecorder*>& lanes) {
  TraceDigest merged;
  for (const TraceRecorder* lane : lanes) {
    if (lane != nullptr) merged.Combine(lane->digest());
  }
  return merged;
}

}  // namespace autocomp::obs
