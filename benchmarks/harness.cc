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

PairedRuns RunPaired(const std::string& name, int runs,
                     const sim::FleetSimOptions& base,
                     const sim::FleetSimOptions& variant) {
  PairedRuns out;
  std::vector<double> ratios;
  uint64_t first_hash = 0;
  const int pairs = std::max(runs, 5);
  for (int run = -1; run < pairs; ++run) {
    const bool variant_first = run % 2 == 0;
    TimedReplay first = TimeReplay(variant_first ? variant : base);
    TimedReplay second = TimeReplay(variant_first ? base : variant);
    TimedReplay& base_run = variant_first ? second : first;
    TimedReplay& variant_run = variant_first ? first : second;
    if (run < 0) {
      std::printf("  %s warmup: %.1f ms (paired baseline %.1f ms)\n",
                  name.c_str(), variant_run.ms, base_run.ms);
      continue;
    }
    const uint64_t hash = variant_run.result.metrics.ContentHash();
    if (run == 0) first_hash = hash;
    AUTOCOMP_CHECK(hash == first_hash)
        << name << " rep " << run << " hash " << hash << " != rep 0 hash "
        << first_hash << " — the replay is nondeterministic";
    if (base_run.ms > 0) ratios.push_back(variant_run.ms / base_run.ms);
    const double best = run == 0 ? variant_run.ms : out.best_variant_ms;
    out.best_variant_ms = std::min(best, variant_run.ms);
    std::printf("  %s run %d/%d: %.1f ms (paired baseline %.1f ms)\n",
                name.c_str(), run + 1, pairs, variant_run.ms, base_run.ms);
    out.base = std::move(base_run);
    out.variant = std::move(variant_run);
  }
  if (!ratios.empty()) {
    std::sort(ratios.begin(), ratios.end());
    const size_t n = ratios.size();
    const double median = n % 2 == 1 ? ratios[n / 2]
                                     : (ratios[n / 2 - 1] + ratios[n / 2]) / 2;
    out.overhead_pct = (median - 1.0) * 100.0;
  }
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
  if (gate.limit <= 0 || !gate.applies || !breached) return false;
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
              const std::function<void(void*)>& fill, double* peak_rss_mb) {
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
  *peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return true;
}
#else
bool ForkInto(const std::string&, void*, size_t,
              const std::function<void(void*)>&, double*) {
  return false;
}
#endif

}  // namespace internal
}  // namespace autocomp::bench
