/// \file fault_injector.h
/// \brief Seeded, counter-RNG-driven fault injection.
///
/// Every stochastic injection decision is a pure function of
/// (seed, site, resource, per-site hit index) via CounterRng — the same
/// construction the shard-parallel simulator uses for NameNode timeout
/// draws — so a run with faults enabled is bit-identical across thread
/// pool sizes and shard counts (NFR2): no draw depends on how events from
/// *other* tables or lanes interleave, only on how many times this site
/// was hit before, which is deterministic within a lane's serial
/// execution.
///
/// Two injection sources compose:
///  * a FaultSchedule scripts exact failures ("inject kind K at site S on
///    the k-th hit"), the workhorse of the differential tests;
///  * a FaultProfile draws failures with per-site probabilities, the
///    workhorse of the fuzz suite and the CLI's --fault-profile knob.
///
/// The disabled injector costs one predictable branch per site hit, and
/// an enabled one with nothing configured at a site returns before its
/// lock and counters, so production-shaped runs keep their fault hooks
/// compiled in (IdleHookTest.EmptyInjectorCountsNoHit checks that an
/// armed-but-idle injector counts no hit).

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/blob.h"
#include "common/clock.h"
#include "common/status.h"
#include "fault/fault_sites.h"

namespace autocomp::obs {
class TraceRecorder;
}  // namespace autocomp::obs

namespace autocomp::fault {

/// \brief One probabilistic failure mode at a site.
struct SiteFault {
  double probability = 0;
  FaultKind kind = FaultKind::kNone;
};

/// \brief Per-site probabilistic failure modes. A site may carry several
/// kinds; each is drawn independently (first match in order wins).
struct FaultProfile {
  std::map<std::string, std::vector<SiteFault>, std::less<>> sites;

  bool empty() const { return sites.empty(); }
};

/// \brief Named profile presets for the CLI's --fault-profile flag:
///  * "none"      — armed but idle (zero-fault overhead measurements);
///  * "timeouts"  — storage read timeouts + occasional quota breaches;
///  * "conflicts" — commit CAS races with rare terminal aborts;
///  * "chaos"     — every site at once, including runner crashes,
///                  dropped/duplicated commit events, and (when a
///                  preempting scheduler is engaged) dispatch-time
///                  compaction preemptions.
/// Unknown names return an error listing the valid ones.
Result<FaultProfile> FaultProfileByName(std::string_view name);

/// \brief One scripted injection: fire `kind` on the `hit`-th arm of
/// `site` (1-based), optionally only when the resource (path, table)
/// contains `resource_substring`. When the filter is set, `hit` counts
/// only matching arms.
struct ScheduledFault {
  std::string site;
  uint64_t hit = 1;
  FaultKind kind = FaultKind::kNone;
  std::string resource_substring;
};

/// \brief A deterministic script of injections.
struct FaultSchedule {
  std::vector<ScheduledFault> entries;

  FaultSchedule& Add(std::string site, uint64_t hit, FaultKind kind,
                     std::string resource_substring = "") {
    entries.push_back(ScheduledFault{std::move(site), hit, kind,
                                     std::move(resource_substring)});
    return *this;
  }
};

/// \brief Injector configuration.
struct FaultInjectorOptions {
  /// Master switch. When false, Arm() is a single branch and nothing is
  /// counted — the zero-overhead path.
  bool enabled = false;
  /// Seed for the counter-based draws (the CLI's --fault-seed).
  uint64_t seed = 0x5eedfau;
  FaultProfile profile;
  FaultSchedule schedule;
};

/// \brief Per-site hit/injection accounting.
struct SiteCounters {
  int64_t hits = 0;
  int64_t injected = 0;
};

/// \brief Deterministic fault decision source, one per simulated
/// deployment (the shard-parallel fleet driver builds one per lane with a
/// lane-derived seed, so injections are independent of shard count).
///
/// Thread-safe: Arm() may be called from pipeline worker threads; the
/// fast path (disabled) takes no lock.
class FaultInjector {
 public:
  explicit FaultInjector(FaultInjectorOptions options = {});

  bool enabled() const { return options_.enabled; }
  const FaultInjectorOptions& options() const { return options_; }

  /// Deployment-wide gate under the master switch: while disarmed, Arm()
  /// returns kNone and counts nothing. Drivers disarm around workload
  /// setup and onboarding — scripted data loads treat failures as fatal,
  /// and injecting there would kill the run before it starts. Toggle only
  /// from serial sections (the boundary itself must be deterministic).
  void set_armed(bool armed) {
    armed_.store(armed, std::memory_order_relaxed);
  }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Counts one hit of `site` for `resource` and decides whether a fault
  /// fires. Returns kNone when nothing is injected. Scheduled entries are
  /// consulted before the probabilistic profile.
  ///
  /// Fast path: when neither the schedule nor the profile configures
  /// `site` — in particular for the armed-but-empty parity configuration
  /// — Arm() short-circuits before the lock, the hit counter, and any
  /// RNG or string work. Unconfigured sites therefore do not appear in
  /// Counters() and do not advance total_hits(); a site's hit stream is
  /// only observable when something could actually fire on it, which is
  /// also what keeps the armed-but-idle injector's cost to one branch.
  FaultKind Arm(std::string_view site, std::string_view resource);

  /// Canonical error Status for an armed kind (e.g. kTimeout maps to
  /// Status::TimedOut). The message names the site and resource so logs
  /// distinguish injected failures from organic ones.
  static Status ToStatus(FaultKind kind, std::string_view site,
                         std::string_view resource);

  /// Installs (or clears, with nullptr) a trace recorder. With one
  /// installed, every injected fault records a "fault.injected" instant
  /// (at TraceLevel::kFull) timestamped from `clock`, so the trace shows
  /// which draws actually fired — the counters only say how many.
  void SetTrace(obs::TraceRecorder* trace, const Clock* clock) {
    trace_ = trace;
    trace_clock_ = clock;
  }

  /// Snapshot of per-site counters (site -> hits/injections).
  std::map<std::string, SiteCounters> Counters() const;
  int64_t total_hits() const;
  int64_t total_injected() const;

  /// \name Lane checkpoint (DESIGN.md §10)
  /// Serializes the per-site hit/injection counters (including filtered
  /// hit streams) — the only mutable state. The injection *decisions*
  /// are pure functions of (seed, site, resource, hit index), so a
  /// restored injector resumes the exact draw stream. Arming is managed
  /// by the fleet driver, not checkpointed.
  /// @{
  void SaveState(common::BlobWriter* w) const;
  void RestoreState(common::BlobReader* r);
  /// @}

 private:
  struct SiteState {
    SiteCounters counters;
    /// Arms matching each schedule filter, for filtered hit counting.
    std::map<std::string, int64_t> filtered_hits;
  };

  void TraceInjection(std::string_view site, std::string_view resource,
                      FaultKind kind) const;

  /// True when the schedule or profile could ever fire at `site`.
  bool SiteConfigured(std::string_view site) const {
    return std::binary_search(configured_sites_.begin(),
                              configured_sites_.end(), site);
  }

  FaultInjectorOptions options_;
  /// Sites the schedule or profile names, sorted — the Arm() fast-path
  /// filter. Immutable after construction, so reads take no lock.
  std::vector<std::string> configured_sites_;
  std::atomic<bool> armed_{true};
  obs::TraceRecorder* trace_ = nullptr;
  const Clock* trace_clock_ = nullptr;
  mutable std::mutex mu_;
  std::map<std::string, SiteState, std::less<>> sites_;
};

}  // namespace autocomp::fault
