/// \file harness.h
/// \brief Shared plumbing of the fleet-replay benches
/// (bench_sim_throughput, bench_policy_sweep): environment knobs, timed
/// replays, paired overhead measurement, forked runs, perf gates and the
/// BENCH_*.json writer. A bench states its tiers as FleetSimOptions and
/// checks; the timing, pairing and process discipline live here once.

#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>

#include "common/json.h"
#include "sim/fleet_driver.h"

namespace autocomp::bench {

/// Integer knob `name`: `fallback` when unset, empty or below
/// `min_value`.
int EnvInt(const char* name, int fallback, int min_value);

/// Floating-point knob `name`: `fallback` when unset or empty. Gate
/// knobs use 0 (a value <= 0 turns the gate off).
double EnvDouble(const char* name, double fallback);

/// \brief One replay and its host wall-clock.
struct TimedReplay {
  double ms = 0;
  sim::FleetSimResult result;
};

/// Replays `options` once, timing FleetSimulation::Run. A failed replay
/// aborts the bench.
TimedReplay TimeReplay(sim::FleetSimOptions options);

/// \brief Outcome of RunPaired.
struct PairedRuns {
  /// (median of the per-pair variant/base wall-clock ratios - 1) x 100.
  double overhead_pct = 0;
  /// Fastest timed variant rep.
  double best_variant_ms = 0;
  /// The last pair, for the caller's parity checks.
  TimedReplay base;
  TimedReplay variant;
};

/// Paired overhead measurement of `variant` against `base`. The host's
/// throughput drifts on minute scales (frequency scaling, noisy
/// neighbours), so timing a variant block minutes after the baseline
/// block buries a 2% effect in several percent of drift. Each pair times
/// both sides back to back, and the overhead is the *median* of the
/// per-pair ratios, which a single noisy rep cannot skew. One untimed
/// warmup pair runs first, then max(runs, 5) timed pairs — the median
/// needs enough samples to reject the outlier reps a busy host produces.
/// Which side runs first alternates per pair: under a monotone host
/// slowdown the second position is systematically slower, which a fixed
/// order would bill entirely to one side. Every variant rep must
/// reproduce rep 0's metrics ContentHash (replays are deterministic; a
/// drifting hash is a bug the timing numbers would otherwise hide).
/// Progress lines are labelled `name`.
PairedRuns RunPaired(const std::string& name, int runs,
                     const sim::FleetSimOptions& base,
                     const sim::FleetSimOptions& variant);

/// \brief A forked run's result and the child's footprint.
template <typename T>
struct ForkedRun {
  T value{};
  /// The child's peak RSS (wait4's ru_maxrss); 0 when the run fell back
  /// to in-process.
  double peak_rss_mb = 0;
  bool forked = false;
};

namespace internal {
/// Runs `fill(out)` in a forked child and copies the `size` bytes it
/// leaves at `out` back to the parent's `out` through a pipe;
/// `*peak_rss_mb` receives the child's ru_maxrss. Returns false, having
/// run nothing, where the platform cannot fork. A child that exits
/// non-zero or writes fewer than `size` bytes aborts the bench, naming
/// `what`.
bool ForkInto(const std::string& what, void* out, size_t size,
              const std::function<void(void*)>& fill, double* peak_rss_mb);
}  // namespace internal

/// Runs `body` in a forked child, so wait4's ru_maxrss is that run's own
/// peak RSS (in-process runs would only ever report the high-water mark
/// of the largest one) and the parent never accumulates the run's
/// memory. The result crosses the pipe as raw bytes, so it must be
/// trivially copyable. Falls back to running `body` in-process where
/// fork is unavailable.
template <typename Body>
auto RunForked(const std::string& what, Body body)
    -> ForkedRun<std::invoke_result_t<Body&>> {
  using T = std::invoke_result_t<Body&>;
  static_assert(std::is_trivially_copyable_v<T>,
                "a forked result crosses the pipe as raw bytes");
  ForkedRun<T> out;
  out.forked = internal::ForkInto(
      what, &out.value, sizeof(T),
      [&](void* into) { *static_cast<T*>(into) = body(); }, &out.peak_rss_mb);
  if (!out.forked) out.value = body();
  return out;
}

/// \brief A perf gate. CI sets the limits from
/// benchmarks/perf_floors.env; a limit <= 0 (knob unset) only reports.
struct Gate {
  enum Kind { kFloor, kBudgetPct, kCeilingMb } kind;
  /// Names the measured value in the failure line.
  const char* what;
  double value;
  double limit;
  /// The gated tier ran (and, for an RSS ceiling, ran forked: otherwise
  /// ru_maxrss is the whole process's high-water mark).
  bool applies = true;
  /// Appended to the failure line.
  const char* note = "";
};

/// Prints `PERF GATE FAIL: <what> <value> below floor <limit>` (or
/// `above budget` / `above ceiling`) for a breached gate; returns
/// whether it was breached.
bool Breached(const Gate& gate);

/// Writes `doc` to `path` in the working directory and says so.
void WriteJson(const char* path, const JsonValue& doc);

}  // namespace autocomp::bench
