#include "fault/fault_injector.h"

#include "common/counter_rng.h"
#include "obs/trace.h"

namespace autocomp::fault {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kTimeout:
      return "timeout";
    case FaultKind::kQuotaExceeded:
      return "quota_exceeded";
    case FaultKind::kCasRaceConflict:
      return "cas_race_conflict";
    case FaultKind::kValidationAbort:
      return "validation_abort";
    case FaultKind::kDisjointRewriteAbort:
      return "disjoint_rewrite_abort";
    case FaultKind::kRunnerCrash:
      return "runner_crash";
    case FaultKind::kDropEvent:
      return "drop_event";
    case FaultKind::kDuplicateEvent:
      return "duplicate_event";
    case FaultKind::kPreempt:
      return "preempt";
  }
  return "unknown";
}

Result<FaultProfile> FaultProfileByName(std::string_view name) {
  FaultProfile profile;
  if (name == "none") return profile;
  if (name == "timeouts") {
    profile.sites[kSiteStorageOpen] = {{0.05, FaultKind::kTimeout}};
    profile.sites[kSiteStorageCreate] = {{0.002, FaultKind::kQuotaExceeded}};
    return profile;
  }
  if (name == "conflicts") {
    profile.sites[kSiteLstCommit] = {{0.05, FaultKind::kCasRaceConflict},
                                     {0.005, FaultKind::kValidationAbort}};
    return profile;
  }
  if (name == "chaos") {
    profile.sites[kSiteStorageOpen] = {{0.05, FaultKind::kTimeout}};
    profile.sites[kSiteStorageCreate] = {{0.002, FaultKind::kQuotaExceeded}};
    profile.sites[kSiteLstCommit] = {
        {0.05, FaultKind::kCasRaceConflict},
        {0.005, FaultKind::kValidationAbort},
        {0.005, FaultKind::kDisjointRewriteAbort}};
    profile.sites[kSiteEngineRunner] = {{0.02, FaultKind::kRunnerCrash}};
    profile.sites[kSiteCatalogCommitEvent] = {
        {0.01, FaultKind::kDropEvent}, {0.01, FaultKind::kDuplicateEvent}};
    // Only drawn when the scheduler has preemption on — the site is
    // never armed otherwise, so chaos runs without it are unchanged.
    profile.sites[kSiteEnginePreempt] = {{0.05, FaultKind::kPreempt}};
    return profile;
  }
  return Status::InvalidArgument(
      "unknown fault profile: " + std::string(name) +
      " (valid: none, timeouts, conflicts, chaos)");
}

FaultInjector::FaultInjector(FaultInjectorOptions options)
    : options_(std::move(options)) {
  // Precompute the sites anything could ever fire at. Arm() consults this
  // sorted vector before taking the lock or counting, so the hot paths of
  // an armed-but-idle injector (empty profile, empty schedule) pay one
  // branch on an empty vector — the same order of cost as disabled.
  for (const ScheduledFault& entry : options_.schedule.entries) {
    configured_sites_.push_back(entry.site);
  }
  for (const auto& [site, faults] : options_.profile.sites) {
    for (const SiteFault& f : faults) {
      if (f.probability > 0 && f.kind != FaultKind::kNone) {
        configured_sites_.push_back(site);
        break;
      }
    }
  }
  std::sort(configured_sites_.begin(), configured_sites_.end());
  configured_sites_.erase(
      std::unique(configured_sites_.begin(), configured_sites_.end()),
      configured_sites_.end());
}

FaultKind FaultInjector::Arm(std::string_view site,
                             std::string_view resource) {
  if (!options_.enabled) return FaultKind::kNone;
  if (!armed_.load(std::memory_order_relaxed)) return FaultKind::kNone;
  if (!SiteConfigured(site)) return FaultKind::kNone;
  std::lock_guard<std::mutex> lock(mu_);
  auto site_it = sites_.find(site);
  if (site_it == sites_.end()) {
    site_it = sites_.emplace(std::string(site), SiteState{}).first;
  }
  SiteState& state = site_it->second;
  ++state.counters.hits;

  // Filtered schedule entries count only arms whose resource matches the
  // filter; advance each distinct matching filter once per arm.
  for (const ScheduledFault& entry : options_.schedule.entries) {
    if (entry.site != site || entry.resource_substring.empty()) continue;
    if (resource.find(entry.resource_substring) == std::string_view::npos) {
      continue;
    }
    bool counted_already = false;
    for (const ScheduledFault& prior : options_.schedule.entries) {
      if (&prior == &entry) break;
      if (prior.site == site &&
          prior.resource_substring == entry.resource_substring) {
        counted_already = true;
        break;
      }
    }
    if (!counted_already) ++state.filtered_hits[entry.resource_substring];
  }

  // Scheduled injections take priority (exact, scriptable).
  for (const ScheduledFault& entry : options_.schedule.entries) {
    if (entry.site != site || entry.kind == FaultKind::kNone) continue;
    int64_t relevant_hits = state.counters.hits;
    if (!entry.resource_substring.empty()) {
      if (resource.find(entry.resource_substring) ==
          std::string_view::npos) {
        continue;
      }
      relevant_hits = state.filtered_hits[entry.resource_substring];
    }
    if (static_cast<uint64_t>(relevant_hits) == entry.hit) {
      ++state.counters.injected;
      TraceInjection(site, resource, entry.kind);
      return entry.kind;
    }
  }

  // Probabilistic profile: one independent counter-based draw per
  // configured kind, keyed by (site, resource, kind) so streams never
  // alias across sites or kinds.
  const auto profile_it = options_.profile.sites.find(site);
  if (profile_it != options_.profile.sites.end()) {
    for (size_t i = 0; i < profile_it->second.size(); ++i) {
      const SiteFault& f = profile_it->second[i];
      if (f.probability <= 0 || f.kind == FaultKind::kNone) continue;
      const uint64_t key = CounterRng::Mix(CounterRng::HashString(site)) ^
                           CounterRng::Mix(CounterRng::HashString(resource)) ^
                           static_cast<uint64_t>(f.kind);
      if (CounterRng::Uniform01(
              options_.seed, key,
              static_cast<uint64_t>(state.counters.hits)) < f.probability) {
        ++state.counters.injected;
        TraceInjection(site, resource, f.kind);
        return f.kind;
      }
    }
  }
  return FaultKind::kNone;
}

void FaultInjector::TraceInjection(std::string_view site,
                                   std::string_view resource,
                                   FaultKind kind) const {
  if (trace_ == nullptr || trace_clock_ == nullptr ||
      !trace_->enabled(obs::TraceLevel::kFull)) {
    return;
  }
  trace_->Instant(obs::TraceLevel::kFull, obs::SpanCategory::kFault,
                  "fault.injected", trace_clock_->Now(),
                  "site=" + std::string(site) + ";resource=" +
                      std::string(resource) + ";kind=" + FaultKindName(kind));
}

Status FaultInjector::ToStatus(FaultKind kind, std::string_view site,
                               std::string_view resource) {
  const std::string detail = std::string("injected ") + FaultKindName(kind) +
                             " at " + std::string(site) + " on " +
                             std::string(resource);
  switch (kind) {
    case FaultKind::kNone:
      return Status::OK();
    case FaultKind::kTimeout:
      return Status::TimedOut(detail);
    case FaultKind::kQuotaExceeded:
      return Status::ResourceExhausted(detail);
    case FaultKind::kCasRaceConflict:
    case FaultKind::kValidationAbort:
    case FaultKind::kDisjointRewriteAbort:
      return Status::CommitConflict(detail);
    case FaultKind::kRunnerCrash:
      return Status::Unavailable(detail);
    case FaultKind::kDropEvent:
    case FaultKind::kDuplicateEvent:
    case FaultKind::kPreempt:
      return Status::Internal(detail);  // never surfaced as a Status
  }
  return Status::Internal(detail);
}

std::map<std::string, SiteCounters> FaultInjector::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SiteCounters> out;
  for (const auto& [site, state] : sites_) out.emplace(site, state.counters);
  return out;
}

int64_t FaultInjector::total_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [site, state] : sites_) total += state.counters.hits;
  return total;
}

int64_t FaultInjector::total_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [site, state] : sites_) total += state.counters.injected;
  return total;
}

void FaultInjector::SaveState(common::BlobWriter* w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w->WriteU64(sites_.size());
  for (const auto& [site, state] : sites_) {
    w->WriteString(site);
    w->WriteI64(state.counters.hits);
    w->WriteI64(state.counters.injected);
    w->WriteU64(state.filtered_hits.size());
    for (const auto& [filter, hits] : state.filtered_hits) {
      w->WriteString(filter);
      w->WriteI64(hits);
    }
  }
}

void FaultInjector::RestoreState(common::BlobReader* r) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  const uint64_t site_count = r->ReadCount();
  for (uint64_t i = 0; i < site_count && r->ok(); ++i) {
    std::string site = r->ReadString();
    SiteState state;
    state.counters.hits = r->ReadI64();
    state.counters.injected = r->ReadI64();
    const uint64_t filters = r->ReadCount();
    for (uint64_t j = 0; j < filters && r->ok(); ++j) {
      std::string filter = r->ReadString();
      state.filtered_hits[std::move(filter)] = r->ReadI64();
    }
    sites_.emplace(std::move(site), std::move(state));
  }
}

}  // namespace autocomp::fault
