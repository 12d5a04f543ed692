#include "sim/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace autocomp::sim {

namespace {
SimTime HourOf(SimTime t) { return (t / kHour) * kHour; }

std::string Describe(const std::string& name, const char* what) {
  return "metric '" + name + "': " + what;
}
}  // namespace

MetricId MetricsRecorder::Intern(const std::string& name) {
  const auto [it, inserted] =
      ids_.emplace(name, static_cast<int32_t>(slots_.size()));
  if (inserted) slots_.emplace_back();
  return MetricId{it->second};
}

const MetricsRecorder::Slot* MetricsRecorder::FindSlot(
    const std::string& name) const {
  const auto it = ids_.find(name);
  return it == ids_.end() ? nullptr
                          : &slots_[static_cast<size_t>(it->second)];
}

void MetricsRecorder::Record(const std::string& series, SimTime time,
                             double value) {
  Record(Intern(series), time, value);
}

void MetricsRecorder::Record(MetricId id, SimTime time, double value) {
  slots_[static_cast<size_t>(id.value)].series.push_back(
      SeriesPoint{time, value});
}

void MetricsRecorder::Observe(const std::string& metric, SimTime time,
                              double value) {
  Observe(Intern(metric), time, value);
}

void MetricsRecorder::Observe(MetricId id, SimTime time, double value) {
  slots_[static_cast<size_t>(id.value)].hourly_samples[HourOf(time)].Add(
      value);
}

void MetricsRecorder::Increment(const std::string& counter, SimTime time,
                                int64_t n) {
  Increment(Intern(counter), time, n);
}

void MetricsRecorder::Increment(MetricId id, SimTime time, int64_t n) {
  slots_[static_cast<size_t>(id.value)].hourly_counts[HourOf(time)] += n;
}

const std::vector<SeriesPoint>& MetricsRecorder::Series(
    const std::string& series) const {
  static const std::vector<SeriesPoint> kEmpty;
  const Slot* slot = FindSlot(series);
  return slot == nullptr ? kEmpty : slot->series;
}

std::vector<std::pair<SimTime, QuantileSummary>>
MetricsRecorder::HourlySummaries(const std::string& metric) const {
  std::vector<std::pair<SimTime, QuantileSummary>> out;
  const Slot* slot = FindSlot(metric);
  if (slot == nullptr) return out;
  for (const auto& [hour, sample] : slot->hourly_samples) {
    out.emplace_back(hour, sample.Summary());
  }
  return out;
}

std::vector<std::pair<SimTime, int64_t>> MetricsRecorder::HourlyCounts(
    const std::string& counter) const {
  std::vector<std::pair<SimTime, int64_t>> out;
  const Slot* slot = FindSlot(counter);
  if (slot == nullptr) return out;
  out.assign(slot->hourly_counts.begin(), slot->hourly_counts.end());
  return out;
}

int64_t MetricsRecorder::TotalCount(const std::string& counter) const {
  int64_t total = 0;
  for (const auto& [_, n] : HourlyCounts(counter)) total += n;
  return total;
}

Sample MetricsRecorder::AllObservations(const std::string& metric) const {
  Sample all;
  const Slot* slot = FindSlot(metric);
  if (slot == nullptr) return all;
  for (const auto& [_, sample] : slot->hourly_samples) {
    for (double v : sample.values()) all.Add(v);
  }
  return all;
}

bool MetricsRecorder::Equals(const MetricsRecorder& other,
                             std::string* why) const {
  const auto fail = [&](const std::string& message) {
    if (why != nullptr) *why = message;
    return false;
  };
  // Union of names; interned-but-empty slots on either side are ignored
  // so pre-registration of handles does not affect equality.
  std::map<std::string, std::pair<const Slot*, const Slot*>> by_name;
  for (const auto& [name, id] : ids_) {
    by_name[name].first = &slots_[static_cast<size_t>(id)];
  }
  for (const auto& [name, id] : other.ids_) {
    by_name[name].second = &other.slots_[static_cast<size_t>(id)];
  }
  static const Slot kEmpty;
  for (const auto& [name, pair] : by_name) {
    const Slot& a = pair.first != nullptr ? *pair.first : kEmpty;
    const Slot& b = pair.second != nullptr ? *pair.second : kEmpty;
    if (a.series.size() != b.series.size()) {
      return fail(Describe(name, "series length differs"));
    }
    for (size_t i = 0; i < a.series.size(); ++i) {
      if (a.series[i].time != b.series[i].time ||
          a.series[i].value != b.series[i].value) {
        return fail(Describe(name, "series point differs at index ") +
                    std::to_string(i));
      }
    }
    if (a.hourly_counts != b.hourly_counts) {
      return fail(Describe(name, "hourly counts differ"));
    }
    if (a.hourly_samples.size() != b.hourly_samples.size()) {
      return fail(Describe(name, "sampled hour set differs"));
    }
    auto ita = a.hourly_samples.begin();
    auto itb = b.hourly_samples.begin();
    for (; ita != a.hourly_samples.end(); ++ita, ++itb) {
      if (ita->first != itb->first) {
        return fail(Describe(name, "sampled hour set differs"));
      }
      // Per-hour multiset equality, bit-exact on values. Sorted copies
      // make the comparison independent of within-hour arrival order
      // (lane merge order is fixed, but Sample sorts lazily in place).
      std::vector<double> va = ita->second.values();
      std::vector<double> vb = itb->second.values();
      if (va.size() != vb.size()) {
        return fail(Describe(name, "sample count differs in hour ") +
                    std::to_string(ita->first));
      }
      std::sort(va.begin(), va.end());
      std::sort(vb.begin(), vb.end());
      if (va != vb) {
        return fail(Describe(name, "sample values differ in hour ") +
                    std::to_string(ita->first));
      }
    }
  }
  return true;
}

obs::MetricsSnapshot MetricsRecorder::Snapshot() const {
  obs::MetricsSnapshot snap;
  for (const auto& [name, id] : ids_) {
    const Slot& slot = slots_[static_cast<size_t>(id)];
    if (!slot.series.empty()) {
      snap.gauges[name] = slot.series.back().value;
    }
    if (!slot.hourly_counts.empty()) {
      int64_t total = 0;
      for (const auto& [hour, n] : slot.hourly_counts) total += n;
      snap.counters[name] = total;
    }
    obs::MetricsSnapshot::Summary summary;
    for (const auto& [hour, sample] : slot.hourly_samples) {
      if (sample.count() == 0) continue;
      if (summary.count == 0) {
        summary.min = sample.Min();
        summary.max = sample.Max();
      } else {
        summary.min = std::min(summary.min, sample.Min());
        summary.max = std::max(summary.max, sample.Max());
      }
      summary.count += sample.count();
      summary.sum += sample.Sum();
    }
    if (summary.count > 0) snap.summaries[name] = summary;
  }
  return snap;
}

MetricsRecorder MetricsRecorder::Merge(
    const std::vector<const MetricsRecorder*>& lanes) {
  MetricsRecorder out;
  // Pass 1: union-intern every lane's names (first-seen order — the same
  // ids the old per-name loop assigned) and build per-lane slot
  // translations, summing series lengths so the append pass never
  // reallocates and never touches a name map again.
  std::vector<std::vector<int32_t>> translate(lanes.size());
  std::vector<size_t> series_sizes;
  for (size_t l = 0; l < lanes.size(); ++l) {
    const MetricsRecorder* lane = lanes[l];
    if (lane == nullptr) continue;
    translate[l].assign(lane->slots_.size(), -1);
    for (const auto& [name, id] : lane->ids_) {
      const int32_t dst = out.Intern(name).value;
      translate[l][static_cast<size_t>(id)] = dst;
      if (static_cast<size_t>(dst) >= series_sizes.size()) {
        series_sizes.resize(static_cast<size_t>(dst) + 1, 0);
      }
      series_sizes[static_cast<size_t>(dst)] +=
          lane->slots_[static_cast<size_t>(id)].series.size();
    }
  }
  for (size_t i = 0; i < series_sizes.size(); ++i) {
    out.slots_[i].series.reserve(series_sizes[i]);
  }
  // Pass 2: append in lane order through the translated ids. Per
  // destination slot this produces exactly the lane-order concatenation
  // the name-keyed loop did — iteration by slot index instead of by name
  // only changes which *distinct* slots are visited first.
  for (size_t l = 0; l < lanes.size(); ++l) {
    const MetricsRecorder* lane = lanes[l];
    if (lane == nullptr) continue;
    for (size_t s = 0; s < lane->slots_.size(); ++s) {
      const Slot& src = lane->slots_[s];
      Slot& dst = out.slots_[static_cast<size_t>(translate[l][s])];
      dst.series.insert(dst.series.end(), src.series.begin(),
                        src.series.end());
      for (const auto& [hour, sample] : src.hourly_samples) {
        Sample& merged = dst.hourly_samples[hour];
        for (double v : sample.values()) merged.Add(v);
      }
      for (const auto& [hour, n] : src.hourly_counts) {
        dst.hourly_counts[hour] += n;
      }
    }
  }
  // Lane streams are individually time-ordered; a stable sort interleaves
  // them by time while ties keep lane order — the same result for any
  // shard count, given a fixed lane order.
  for (Slot& slot : out.slots_) {
    std::stable_sort(
        slot.series.begin(), slot.series.end(),
        [](const SeriesPoint& a, const SeriesPoint& b) {
          return a.time < b.time;
        });
  }
  return out;
}

uint64_t MetricsRecorder::ContentHash() const {
  // FNV-1a over the same view Equals compares: names in sorted order,
  // series point for point (time and value bit-exact), hourly counts,
  // per-hour sample multisets (sorted copies, like Equals, so the hash
  // is independent of within-hour arrival order). Empty slots skipped.
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const auto mix_double = [&](double d) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  for (const auto& [name, id] : ids_) {
    const Slot& slot = slots_[static_cast<size_t>(id)];
    if (slot.empty()) continue;
    mix(static_cast<uint64_t>(name.size()));
    for (char c : name) mix(static_cast<unsigned char>(c));
    mix(static_cast<uint64_t>(slot.series.size()));
    for (const SeriesPoint& p : slot.series) {
      mix(static_cast<uint64_t>(p.time));
      mix_double(p.value);
    }
    mix(static_cast<uint64_t>(slot.hourly_counts.size()));
    for (const auto& [hour, n] : slot.hourly_counts) {
      mix(static_cast<uint64_t>(hour));
      mix(static_cast<uint64_t>(n));
    }
    mix(static_cast<uint64_t>(slot.hourly_samples.size()));
    for (const auto& [hour, sample] : slot.hourly_samples) {
      mix(static_cast<uint64_t>(hour));
      std::vector<double> values = sample.values();
      std::sort(values.begin(), values.end());
      mix(static_cast<uint64_t>(values.size()));
      for (double v : values) mix_double(v);
    }
  }
  return h;
}

double SeriesSum(const MetricsRecorder& metrics, const std::string& series) {
  double sum = 0;
  for (const SeriesPoint& p : metrics.Series(series)) sum += p.value;
  return sum;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::string out;
  auto append_row = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      out += "| ";
      out += cells[i];
      out.append(widths[i] - cells[i].size() + 1, ' ');
    }
    out += "|\n";
  };
  append_row(headers_);
  std::string rule;
  for (size_t w : widths) {
    rule += "|";
    rule.append(w + 2, '-');
  }
  rule += "|\n";
  out += rule;
  for (const auto& row : rows_) append_row(row);
  return out;
}

std::string Fmt(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

}  // namespace autocomp::sim
