#include "benchmarks/harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#if defined(__unix__)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "common/logging.h"

namespace autocomp::bench {

int EnvInt(const char* name, int fallback, int min_value) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  const int parsed = std::atoi(value);
  return parsed < min_value ? fallback : parsed;
}

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  return std::atof(value);
}

TimedReplay TimeReplay(sim::FleetSimOptions options) {
  sim::FleetSimulation simulation(std::move(options));
  const auto start = std::chrono::steady_clock::now();
  auto result = simulation.Run();
  const auto stop = std::chrono::steady_clock::now();
  AUTOCOMP_CHECK(result.ok()) << result.status();
  return {std::chrono::duration<double, std::milli>(stop - start).count(),
          *std::move(result)};
}

namespace {

/// Linear-interpolated quantile `q` of ascending `sorted` (non-empty).
double Quantile(const std::vector<double>& sorted, double q) {
  const double at = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(at);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double weight = at - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * weight;
}

}  // namespace

PairedRuns RunPaired(const std::string& name, int runs,
                     const sim::FleetSimOptions& base,
                     const sim::FleetSimOptions& variant) {
  AUTOCOMP_CHECK(base.pool == nullptr && variant.pool == nullptr)
      << name << ": a forked rep cannot reach the parent's pool threads";
  PairedRuns out;
  out.base = TimeReplay(base);
  out.variant = TimeReplay(variant);
  std::printf("  %s warmup: %.1f ms (paired baseline %.1f ms)\n",
              name.c_str(), out.variant.ms, out.base.ms);
  const uint64_t base_hash = out.base.result.metrics.ContentHash();
  const uint64_t variant_hash = out.variant.result.metrics.ContentHash();

  struct Rep {
    uint64_t hash;
    double wall_ms;
  };
  // One timed rep of one side, in a forked child.
  const auto rep = [&](bool is_variant) {
    const sim::FleetSimOptions& options = is_variant ? variant : base;
    const ForkedRun<Rep> run = RunForked(name, [&options] {
      const TimedReplay timed = TimeReplay(options);
      return Rep{timed.result.metrics.ContentHash(), timed.ms};
    });
    const uint64_t expected = is_variant ? variant_hash : base_hash;
    AUTOCOMP_CHECK(run.value.hash == expected)
        << name << (is_variant ? " variant" : " baseline") << " rep hash "
        << run.value.hash << " != warmup hash " << expected
        << " — the replay is nondeterministic";
    return run;
  };

  std::vector<double> ratios;
  const int pairs = std::max(runs, 9);
  for (int run = 0; run < pairs; ++run) {
    const bool variant_first = run % 2 == 0;
    const ForkedRun<Rep> first = rep(variant_first);
    const ForkedRun<Rep> second = rep(!variant_first);
    const ForkedRun<Rep>& base_run = variant_first ? second : first;
    const ForkedRun<Rep>& variant_run = variant_first ? first : second;
    if (base_run.usage.cpu_ms > 0) {
      ratios.push_back(variant_run.usage.cpu_ms / base_run.usage.cpu_ms);
    }
    const double best = run == 0 ? variant_run.value.wall_ms
                                 : out.best_variant_ms;
    out.best_variant_ms = std::min(best, variant_run.value.wall_ms);
    std::printf("  %s run %d/%d: %.1f ms cpu (paired baseline %.1f ms cpu)\n",
                name.c_str(), run + 1, pairs, variant_run.usage.cpu_ms,
                base_run.usage.cpu_ms);
  }
  if (!ratios.empty()) {
    std::sort(ratios.begin(), ratios.end());
    out.overhead_pct = (Quantile(ratios, 0.5) - 1.0) * 100.0;
    out.overhead_iqr_pct =
        (Quantile(ratios, 0.75) - Quantile(ratios, 0.25)) * 100.0;
    out.overhead_q1_pct = (Quantile(ratios, 0.25) - 1.0) * 100.0;
  }
  std::printf("  %s cpu overhead %.2f%% (lower quartile %.2f%%, "
              "interquartile range %.2f%%)\n",
              name.c_str(), out.overhead_pct, out.overhead_q1_pct,
              out.overhead_iqr_pct);
  return out;
}

bool Breached(const Gate& gate) {
  static constexpr struct {
    int precision;
    const char* unit;
    const char* relation;
  } kFormats[] = {{0, "", "below floor"},
                  {2, "%", "above budget"},
                  {1, " MB", "above ceiling"}};
  const bool breached = gate.kind == Gate::kFloor ? gate.value < gate.limit
                                                  : gate.value > gate.limit;
  if (gate.limit <= 0 || !gate.applies) return false;
  if (gate.kind == Gate::kBudgetPct && gate.spread >= gate.limit &&
      gate.lower_quartile <= gate.limit) {
    std::printf("PERF GATE UNRESOLVED: %s %.2f%% against budget %.2f%%: "
                "its pairs' interquartile range %.2f%% is not under the "
                "budget and their lower quartile %.2f%% is not over it%s\n",
                gate.what, gate.value, gate.limit, gate.spread,
                gate.lower_quartile, gate.note);
    return false;
  }
  if (!breached) return false;
  const auto& f = kFormats[gate.kind];
  std::printf("PERF GATE FAIL: %s %.*f%s %s %.*f%s%s\n", gate.what,
              f.precision, gate.value, f.unit, f.relation, f.precision,
              gate.limit, f.unit, gate.note);
  return true;
}

void WriteJson(const char* path, const JsonValue& doc) {
  std::FILE* out = std::fopen(path, "w");
  AUTOCOMP_CHECK(out != nullptr) << "cannot write " << path;
  std::fputs(doc.Dump().c_str(), out);
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

namespace internal {

#if defined(__unix__)
bool ForkInto(const std::string& what, void* out, size_t size,
              const std::function<void(void*)>& fill, ChildUsage* usage) {
  int fds[2] = {-1, -1};
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    fill(out);
    const char* bytes = static_cast<const char*>(out);
    size_t written = 0;
    while (written < size) {
      const ssize_t n = write(fds[1], bytes + written, size - written);
      if (n <= 0) _exit(3);
      written += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  char* bytes = static_cast<char*>(out);
  size_t got = 0;
  while (got < size) {
    const ssize_t n = read(fds[0], bytes + got, size - got);
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  struct rusage ru {};
  int status = 0;
  AUTOCOMP_CHECK(wait4(pid, &status, 0, &ru) == pid) << what;
  AUTOCOMP_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << what << " child exited abnormally";
  AUTOCOMP_CHECK(got == size)
      << what << " child wrote " << got << " of " << size << " result bytes";
  // Linux reports ru_maxrss in kilobytes.
  usage->peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  usage->cpu_ms = ms(ru.ru_utime) + ms(ru.ru_stime);
  return true;
}
#else
bool ForkInto(const std::string&, void*, size_t,
              const std::function<void(void*)>&, ChildUsage*) {
  return false;
}
#endif

}  // namespace internal
}  // namespace autocomp::bench
