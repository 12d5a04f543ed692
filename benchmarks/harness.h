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
  /// (median of the per-pair variant/base CPU-time ratios - 1) x 100.
  double overhead_pct = 0;
  /// Interquartile range of the per-pair ratios, x 100: the spread the
  /// median was measured with.
  double overhead_iqr_pct = 0;
  /// (lower quartile of the per-pair ratios - 1) x 100.
  double overhead_q1_pct = 0;
  /// Fastest timed variant rep, host wall clock of FleetSimulation::Run.
  double best_variant_ms = 0;
  /// The untimed warmup pair, replayed in-process: the results the
  /// caller's parity checks read. Every timed rep reproduces its hashes.
  TimedReplay base;
  TimedReplay variant;
};

/// Paired overhead measurement of `variant` against `base`, in host CPU
/// time. Each timed rep replays in a forked child, and its cost is the
/// child's ru_utime + ru_stime from wait4: CPU time does not count the
/// waits a busy host imposes, which a wall-clock ratio bills to
/// whichever side they hit. The host's speed still drifts on minute
/// scales (frequency scaling, cache-sharing neighbours), so each pair
/// runs both sides back to back, and the overhead is the *median* of the
/// per-pair ratios, which a single noisy rep cannot skew; the ratios'
/// spread says how far to trust it (Gate::spread, Gate::lower_quartile). One
/// untimed in-process warmup pair runs first, then max(runs, 9) timed
/// pairs: with fewer, the median and the range of a noisy host's ratios
/// both swing too far to gate on. Which side runs first alternates per
/// pair: under a monotone host slowdown the second position is
/// systematically slower, which a fixed order would bill entirely to one
/// side. Every timed rep must
/// reproduce its side's warmup ContentHash (replays are deterministic; a
/// drifting hash is a bug the timing numbers would otherwise hide).
/// Neither side may use a thread pool: a forked child has none of the
/// parent's threads. Progress lines are labelled `name`.
PairedRuns RunPaired(const std::string& name, int runs,
                     const sim::FleetSimOptions& base,
                     const sim::FleetSimOptions& variant);

/// \brief A forked run's result and the child's footprint.
/// \brief What wait4 reports about a forked child.
struct ChildUsage {
  /// Peak RSS (ru_maxrss).
  double peak_rss_mb = 0;
  /// Host CPU time, user plus system (ru_utime + ru_stime).
  double cpu_ms = 0;
};

template <typename T>
struct ForkedRun {
  T value{};
  /// The child's footprint and CPU time; zero when the run fell back to
  /// in-process.
  ChildUsage usage;
  bool forked = false;
};

namespace internal {
/// Runs `fill(out)` in a forked child and copies the `size` bytes it
/// leaves at `out` back to the parent's `out` through a pipe; `*usage`
/// receives the child's wait4 figures. Returns false, having run nothing,
/// where the platform cannot fork. A child that exits non-zero or writes
/// fewer than `size` bytes aborts the bench, naming `what`.
bool ForkInto(const std::string& what, void* out, size_t size,
              const std::function<void(void*)>& fill, ChildUsage* usage);
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
      [&](void* into) { *static_cast<T*>(into) = body(); }, &out.usage);
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
  /// For a budget over paired runs: the per-pair ratios' interquartile
  /// range and lower quartile (PairedRuns::overhead_iqr_pct and
  /// overhead_q1_pct). The budget's verdict is resolved when the range is
  /// under the budget, or when the lower quartile is over it (three
  /// quarters of the pairs breach it, however wide the spread).
  double spread = 0;
  double lower_quartile = 0;
};

/// Prints `PERF GATE FAIL: <what> <value> below floor <limit>` (or
/// `above budget` / `above ceiling`) for a breached gate; returns
/// whether it was breached. A budget whose verdict is not resolved
/// prints `PERF GATE UNRESOLVED: ...` instead and passes.
bool Breached(const Gate& gate);

/// Writes `doc` to `path` in the working directory and says so.
void WriteJson(const char* path, const JsonValue& doc);

}  // namespace autocomp::bench
