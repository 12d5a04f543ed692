#include "sched/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/counter_rng.h"

namespace autocomp::sched {
namespace {

/// Stream key for the DRR rotation draws (decorrelated from the backoff
/// jitter stream, which is keyed per unit id).
constexpr uint64_t kDrrRotationStream = 0xd22u;

/// Weights below this are clamped up: a zero weight would never refill
/// its deficit and wedge the round loop.
constexpr double kMinWeight = 1e-6;

}  // namespace

const char* SchedulerPolicyName(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kFifo:
      return "fifo";
    case SchedulerPolicy::kDrr:
      return "drr";
    case SchedulerPolicy::kPriority:
      return "priority";
  }
  return "unknown";
}

std::optional<SchedulerPolicy> ParseSchedulerPolicy(std::string_view name) {
  if (name == "fifo") return SchedulerPolicy::kFifo;
  if (name == "drr") return SchedulerPolicy::kDrr;
  if (name == "priority") return SchedulerPolicy::kPriority;
  return std::nullopt;
}

double SchedulerOptions::WeightOf(const std::string& tenant) const {
  const auto it = tenant_weights.find(tenant);
  const double w = it == tenant_weights.end() ? 1.0 : it->second;
  return std::max(w, kMinWeight);
}

int SchedulerOptions::PriorityOf(const std::string& tenant) const {
  const auto it = tenant_priorities.find(tenant);
  return it == tenant_priorities.end() ? 0 : it->second;
}

MaintenanceScheduler::MaintenanceScheduler(SchedulerOptions options)
    : options_(std::move(options)) {
  backoff_.max_attempts = std::numeric_limits<int>::max();
  backoff_.base_backoff_seconds = options_.preempt_backoff_s;
  backoff_.max_backoff_seconds = options_.preempt_max_backoff_s;
  backoff_.jitter_fraction = 0.25;
  backoff_.seed = options_.seed;
}

std::string MaintenanceScheduler::TenantOf(const std::string& table) {
  const size_t dot = table.find('.');
  return dot == std::string::npos ? table : table.substr(0, dot);
}

AdmitOutcome MaintenanceScheduler::Admit(
    const std::vector<core::ScoredCandidate>& plan, SimTime now) {
  AdmitOutcome outcome;
  for (const core::ScoredCandidate& item : plan) {
    const core::Candidate& candidate = item.candidate();
    const std::string tenant = TenantOf(candidate.table);
    if (options_.tenant_budget_gb_hours > 0 &&
        DebtGbHours(tenant, now) > 0) {
      ++outcome.rejected;
      continue;
    }
    QueuedUnit unit;
    unit.candidate = candidate;
    const auto cost = item.traited.traits.find("compute_cost_gbhr");
    if (cost != item.traited.traits.end()) unit.cost_gb_hours = cost->second;
    unit.score = item.score;
    unit.admitted_at = now;
    unit.seq = next_seq_++;
    if (options_.policy == SchedulerPolicy::kFifo &&
        running_.count(candidate.table) == 0) {
      // Kick each table once per plan, at its first occurrence: after
      // the first kick a table is either running or drained, so a
      // duplicate kick would be a no-op.
      if (std::find(kicks_.begin(), kicks_.end(), candidate.table) ==
          kicks_.end()) {
        kicks_.push_back(candidate.table);
      }
    }
    tenants_[tenant].queue.push_back(std::move(unit));
    ++queued_;
    ++outcome.admitted;
  }
  return outcome;
}

std::deque<QueuedUnit>::iterator MaintenanceScheduler::FirstDispatchable(
    Tenant& tenant, SimTime now) {
  return std::find_if(
      tenant.queue.begin(), tenant.queue.end(),
      [&](const QueuedUnit& unit) { return Dispatchable(unit, now); });
}

QueuedUnit MaintenanceScheduler::Take(Tenant* tenant,
                                      std::deque<QueuedUnit>::iterator it) {
  QueuedUnit unit = std::move(*it);
  if (unit.preemptions > 0) --backed_off_;
  tenant->queue.erase(it);
  --queued_;
  if (tenant->queue.empty()) tenant->deficit = 0;  // no banking while idle
  return unit;
}

std::optional<QueuedUnit> MaintenanceScheduler::NextUnit(SimTime now) {
  switch (options_.policy) {
    case SchedulerPolicy::kFifo:
      return NextFifo(now);
    case SchedulerPolicy::kDrr:
      return NextDrr(now);
    case SchedulerPolicy::kPriority:
      return NextPriority(now);
  }
  return std::nullopt;
}

std::optional<QueuedUnit> MaintenanceScheduler::NextFifo(SimTime now) {
  while (!kicks_.empty()) {
    const std::string table = kicks_.front();
    if (running_.count(table) != 0) {
      kicks_.pop_front();
      continue;
    }
    Tenant& tenant = tenants_[TenantOf(table)];
    const auto it = std::find_if(
        tenant.queue.begin(), tenant.queue.end(),
        [&](const QueuedUnit& unit) {
          return unit.candidate.table == table && Ripe(unit, now);
        });
    if (it == tenant.queue.end()) {
      kicks_.pop_front();  // drained without a start
      continue;
    }
    // The kick stays front until OnStarted pops it: a failed prepare
    // retries the same table's next unit.
    return Take(&tenant, it);
  }
  return PopRipeRequeued(now);
}

std::optional<QueuedUnit> MaintenanceScheduler::PopRipeRequeued(SimTime now) {
  if (backed_off_ == 0) return std::nullopt;
  // Requeued units are appended in requeue order, not seq order, so the
  // whole queue is scanned for the globally oldest ripe one.
  Tenant* best_tenant = nullptr;
  std::deque<QueuedUnit>::iterator best;
  for (auto& [name, tenant] : tenants_) {
    for (auto it = tenant.queue.begin(); it != tenant.queue.end(); ++it) {
      if (it->preemptions == 0 || !Dispatchable(*it, now)) continue;
      if (best_tenant == nullptr || it->seq < best->seq) {
        best_tenant = &tenant;
        best = it;
      }
    }
  }
  if (best_tenant == nullptr) return std::nullopt;
  return Take(best_tenant, best);
}

std::optional<QueuedUnit> MaintenanceScheduler::NextDrr(SimTime now) {
  // Deficit round-robin with a persistent turn. The tenant holding the
  // turn keeps dispatching — no refill — while its banked deficit funds
  // its head unit: that streak is where weight proportionality comes
  // from (a weight-4 tenant drains four quantum-sized units per turn
  // where a weight-1 tenant drains one). When the holder runs dry or
  // goes inactive, the turn advances cyclically through the name-sorted
  // active tenants, refilling each visited tenant once (quantum x
  // weight); the first funded tenant takes the turn. Only the very
  // first turn consumes a counter-RNG draw (the deterministic analogue
  // of "who happened to arrive first") — every later decision is a pure
  // function of the banked deficits and the turn holder's name, both of
  // which the lane checkpoint carries. The cheapest dispatchable unit
  // is funded within O(cost/quantum) rounds, so the bound below is a
  // safety net, not a budget.
  for (int round = 0; round < 1 << 20; ++round) {
    std::vector<std::pair<const std::string*, Tenant*>> actives;
    for (auto& [name, tenant] : tenants_) {
      if (FirstDispatchable(tenant, now) != tenant.queue.end()) {
        actives.emplace_back(&name, &tenant);
      }
    }
    if (actives.empty()) return std::nullopt;
    size_t start = 0;
    if (drr_turn_.empty()) {
      start = CounterRng::At(options_.seed, kDrrRotationStream,
                             drr_rounds_++) %
              actives.size();
    } else {
      // Serve the holder while its bank funds its head unit.
      for (size_t i = 0; i < actives.size(); ++i) {
        auto& [name, tenant] = actives[i];
        if (*name != drr_turn_) continue;
        const auto it = FirstDispatchable(*tenant, now);
        if (tenant->deficit >= it->cost_gb_hours) return Take(tenant, it);
        break;
      }
      // Holder is dry or inactive: advance to the cyclically-next
      // active tenant (first active name > holder, wrapping).
      while (start < actives.size() && *actives[start].first <= drr_turn_) {
        ++start;
      }
      if (start == actives.size()) start = 0;
    }
    for (size_t i = 0; i < actives.size(); ++i) {
      auto& [name, tenant] = actives[(start + i) % actives.size()];
      tenant->deficit += options_.quantum_gb_hours * options_.WeightOf(*name);
      const auto it = FirstDispatchable(*tenant, now);
      if (tenant->deficit >= it->cost_gb_hours) {
        drr_turn_ = *name;
        return Take(tenant, it);
      }
    }
    // Nobody was funded by one refill each; loop — deficits bank across
    // rounds, so the cheapest head is reached in bounded rounds.
  }
  return std::nullopt;
}

std::optional<QueuedUnit> MaintenanceScheduler::NextPriority(SimTime now) {
  Tenant* best_tenant = nullptr;
  std::deque<QueuedUnit>::iterator best;
  double best_priority = 0;
  for (auto& [name, tenant] : tenants_) {
    const auto it = FirstDispatchable(tenant, now);
    if (it == tenant.queue.end()) continue;
    const double priority =
        static_cast<double>(options_.PriorityOf(name)) +
        options_.aging_per_hour *
            (static_cast<double>(now - it->admitted_at) / kHour);
    if (best_tenant == nullptr || priority > best_priority ||
        (priority == best_priority && it->seq < best->seq)) {
      best_tenant = &tenant;
      best = it;
      best_priority = priority;
    }
  }
  if (best_tenant == nullptr) return std::nullopt;
  return Take(best_tenant, best);
}

void MaintenanceScheduler::OnStarted(const QueuedUnit& unit, SimTime now) {
  (void)now;
  const std::string& table = unit.candidate.table;
  if (options_.policy == SchedulerPolicy::kDrr) {
    tenants_[TenantOf(table)].deficit -= unit.cost_gb_hours;
  }
  if (options_.policy == SchedulerPolicy::kFifo && !kicks_.empty() &&
      kicks_.front() == table) {
    kicks_.pop_front();
  }
  running_[table] = unit;
}

void MaintenanceScheduler::OnFinished(const std::string& table,
                                      double gb_hours, SimTime now) {
  running_.erase(table);
  Tenant& tenant = tenants_[TenantOf(table)];
  tenant.usage_gb_hours += gb_hours;
  if (options_.policy == SchedulerPolicy::kFifo) {
    // A finalized table restarts immediately if it still has queued
    // units.
    const auto it = std::find_if(
        tenant.queue.begin(), tenant.queue.end(),
        [&](const QueuedUnit& unit) {
          return unit.candidate.table == table && Ripe(unit, now);
        });
    if (it != tenant.queue.end() &&
        std::find(kicks_.begin(), kicks_.end(), table) == kicks_.end()) {
      kicks_.push_back(table);
    }
  }
}

void MaintenanceScheduler::Preempt(const std::string& table,
                                   double gb_hours_charged, SimTime now) {
  const auto it = running_.find(table);
  if (it == running_.end()) return;
  QueuedUnit unit = std::move(it->second);
  running_.erase(it);
  Tenant& tenant = tenants_[TenantOf(table)];
  tenant.usage_gb_hours += gb_hours_charged;
  ++unit.preemptions;
  const uint64_t key = CounterRng::HashString(unit.candidate.id());
  unit.not_before =
      now + static_cast<SimTime>(
                std::llround(backoff_.BackoffSeconds(key, unit.preemptions)));
  tenant.queue.push_back(std::move(unit));
  ++queued_;
  ++backed_off_;
}

std::optional<QueuedUnit> MaintenanceScheduler::RunningUnit(
    const std::string& table) const {
  const auto it = running_.find(table);
  if (it == running_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> MaintenanceScheduler::RunningTablesOf(
    const std::string& tenant) const {
  std::vector<std::string> tables;
  for (const auto& [table, unit] : running_) {
    if (TenantOf(table) == tenant) tables.push_back(table);
  }
  return tables;  // map order == name order
}

std::optional<SimTime> MaintenanceScheduler::NextReadyTime(SimTime now) const {
  if (backed_off_ == 0) return std::nullopt;
  std::optional<SimTime> next;
  for (const auto& [name, tenant] : tenants_) {
    for (const QueuedUnit& unit : tenant.queue) {
      if (unit.preemptions == 0 || unit.not_before <= now) continue;
      if (!next || unit.not_before < *next) next = unit.not_before;
    }
  }
  return next;
}

double MaintenanceScheduler::DebtGbHours(const std::string& tenant,
                                         SimTime now) const {
  if (options_.tenant_budget_gb_hours <= 0) return 0;
  const auto it = tenants_.find(tenant);
  const double usage = it == tenants_.end() ? 0 : it->second.usage_gb_hours;
  // Day one's allowance is granted up front; otherwise nothing could be
  // admitted at t=0.
  const double elapsed_days =
      1.0 + static_cast<double>(now) / static_cast<double>(kDay);
  const double allowance = options_.tenant_budget_gb_hours *
                           options_.WeightOf(tenant) * elapsed_days;
  return usage - allowance;
}

double MaintenanceScheduler::UsageGbHours(const std::string& tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.usage_gb_hours;
}

std::vector<std::string> MaintenanceScheduler::Tenants() const {
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  return names;
}

void MaintenanceScheduler::Clear() {
  for (auto& [name, tenant] : tenants_) {
    tenant.queue.clear();
    tenant.deficit = 0;
  }
  running_.clear();
  kicks_.clear();
  queued_ = 0;
  backed_off_ = 0;
}

void MaintenanceScheduler::SaveState(common::BlobWriter* w) const {
  w->WriteI64(next_seq_);
  w->WriteI64(static_cast<int64_t>(drr_rounds_));
  w->WriteString(drr_turn_);
  w->WriteI64(static_cast<int64_t>(tenants_.size()));
  for (const auto& [name, tenant] : tenants_) {
    w->WriteString(name);
    w->WriteF64(tenant.usage_gb_hours);
    w->WriteF64(tenant.deficit);
  }
}

Status MaintenanceScheduler::RestoreState(common::BlobReader* r) {
  if (!Quiescent()) {
    return Status::Internal("scheduler restore requires a quiescent scheduler");
  }
  next_seq_ = r->ReadI64();
  drr_rounds_ = static_cast<uint64_t>(r->ReadI64());
  drr_turn_ = r->ReadString();
  const int64_t count = r->ReadI64();
  for (int64_t i = 0; i < count && r->ok(); ++i) {
    Tenant& tenant = tenants_[r->ReadString()];
    tenant.usage_gb_hours = r->ReadF64();
    tenant.deficit = r->ReadF64();
  }
  if (!r->ok()) return Status::Internal("truncated scheduler checkpoint");
  return Status::OK();
}

}  // namespace autocomp::sched
