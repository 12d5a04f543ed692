/// \file metrics.h
/// \brief Metric collection for experiments: time series, hourly latency
/// samples, hourly counters, and ASCII reporting.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"
#include "obs/metrics_export.h"

namespace autocomp::sim {

/// \brief One (time, value) point of a recorded series.
struct SeriesPoint {
  SimTime time = 0;
  double value = 0;
};

/// \brief Interned handle for a metric name. The string API hashes a
/// std::string on every call — per-event cost on the driver's hot loop.
/// Hot paths intern their names once and record through the handle,
/// which is a plain vector index.
struct MetricId {
  int32_t value = -1;
  bool valid() const { return value >= 0; }
};

/// \brief Collects experiment telemetry. All lookups are by metric name;
/// unknown names return empty results rather than failing, so reporting
/// code stays straightforward.
class MetricsRecorder {
 public:
  /// Interns `name`, returning a stable handle. One id namespace covers
  /// series, hourly samples and hourly counters (a name identifies one
  /// logical metric regardless of kind). Idempotent.
  MetricId Intern(const std::string& name);

  /// Appends a point to a named time series (e.g. sampled file counts).
  void Record(const std::string& series, SimTime time, double value);
  void Record(MetricId id, SimTime time, double value);

  /// Adds an observation to the hourly distribution bucket containing
  /// `time` (e.g. per-query latencies for Figure 8's candlesticks).
  void Observe(const std::string& metric, SimTime time, double value);
  void Observe(MetricId id, SimTime time, double value);

  /// Increments an hourly counter (conflicts, retries, timeouts).
  void Increment(const std::string& counter, SimTime time, int64_t n = 1);
  void Increment(MetricId id, SimTime time, int64_t n = 1);

  const std::vector<SeriesPoint>& Series(const std::string& series) const;

  /// (hour_start, summary) rows, ascending.
  std::vector<std::pair<SimTime, QuantileSummary>> HourlySummaries(
      const std::string& metric) const;

  /// (hour_start, count) rows, ascending; hours with no increments are
  /// absent.
  std::vector<std::pair<SimTime, int64_t>> HourlyCounts(
      const std::string& counter) const;

  int64_t TotalCount(const std::string& counter) const;

  /// Raw sample across all hours.
  Sample AllObservations(const std::string& metric) const;

  /// \brief Content equality across every recorded metric: series are
  /// compared point for point (time and value bit-exact), hourly samples
  /// as value multisets per hour, counters per hour. Interned-but-empty
  /// metrics are ignored. On mismatch, `why` (when given) receives a
  /// human-readable description of the first difference.
  bool Equals(const MetricsRecorder& other, std::string* why = nullptr) const;

  /// \brief Aggregated export view: hourly counters collapse to run
  /// totals, each series contributes its last value as a gauge, hourly
  /// samples aggregate to count/sum/min/max summaries. Feeds
  /// obs::ToPrometheusText (the CLI's --metrics-out).
  obs::MetricsSnapshot Snapshot() const;

  /// \brief Deterministic merge of per-lane recorders: series points are
  /// stably merged by time (ties keep lane order), per-hour samples are
  /// concatenated in lane order, counters are summed. Callers must pass
  /// lanes in a fixed order (the shard-parallel driver uses lane index)
  /// so the merged output is independent of shard count and scheduling.
  /// Repeated pointers are allowed (the lazy fleet driver passes one
  /// shared ghost recorder for every idle lane). Internally the lanes'
  /// interned id arrays are translated once and slots merged in id order
  /// with pre-reserved series storage — no per-name map lookups in the
  /// append pass.
  static MetricsRecorder Merge(const std::vector<const MetricsRecorder*>& lanes);

  /// \brief Order-stable 64-bit content hash: covers exactly what Equals
  /// compares (names in sorted order, series point for point, hourly
  /// counts, per-hour sample multisets; interned-but-empty slots are
  /// skipped). Two recorders are Equals iff their hashes match, modulo
  /// collisions — the scale-tier bench compares runs across processes
  /// with it, where shipping whole recorders is impractical.
  uint64_t ContentHash() const;

 private:
  /// Per-metric storage; a slot may be populated as any mix of kinds.
  struct Slot {
    std::vector<SeriesPoint> series;
    std::map<SimTime, Sample> hourly_samples;
    std::map<SimTime, int64_t> hourly_counts;

    bool empty() const {
      return series.empty() && hourly_samples.empty() &&
             hourly_counts.empty();
    }
  };

  const Slot* FindSlot(const std::string& name) const;

  std::map<std::string, int32_t> ids_;  // name -> slot index
  std::vector<Slot> slots_;
};

/// \brief Sum of all values in a recorded series (0 when absent) — e.g.
/// total wall-clock a pipeline phase consumed across every run.
double SeriesSum(const MetricsRecorder& metrics, const std::string& series);

/// \brief Fixed-width ASCII table printer used by the bench harnesses.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  /// Renders with a header underline; column widths fit the content.
  std::string ToString() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// \brief printf-style float formatting helper ("%.2f").
std::string Fmt(double value, int decimals = 2);

}  // namespace autocomp::sim
