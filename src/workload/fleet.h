/// \file fleet.h
/// \brief Scaled-down model of a production table fleet (§7: 35K tables
/// across tenant databases with namespace quotas, daily write activity
/// skewed toward a hot subset, and a daily scan-heavy workload).
///
/// Drives the production-deployment experiments: Figure 2 (distribution
/// shift none → manual → auto), Figure 10 (rollout timeline), and
/// Figure 11 (workload impact and open() calls).

#pragma once

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/control_plane.h"
#include "common/random.h"
#include "common/units.h"
#include "engine/query_engine.h"
#include "workload/events.h"

namespace autocomp::workload {

struct FleetOptions {
  /// Tenant databases and tables per database (defaults give an ~800
  /// table fleet — a 1:40 scale model of the 35K-table deployment).
  int num_databases = 16;
  int tables_per_db = 12;
  /// Namespace-quota objects per database.
  int64_t quota_objects_per_db = 400'000;
  /// Lognormal parameters for table logical size (median ~e^mu bytes).
  double size_mu = std::log(4.0 * kGiB);
  double size_sigma = 1.6;
  /// Fraction of tables that are date-partitioned.
  double partitioned_fraction = 0.45;
  /// Fraction of tables written on any given day (Zipf-skewed pick).
  double daily_write_fraction = 0.15;
  /// Logical bytes per daily write, as a fraction of table size.
  double daily_write_size_fraction = 0.02;
  /// Reads per table per day for the scan-heavy daily workload.
  double daily_reads_per_table = 0.3;
  /// New tables onboarded per day (the deployment keeps growing).
  int new_tables_per_day = 2;
  uint64_t seed = 77;
};

/// \brief Destination components for one tenant database. The sharded
/// fleet simulator keeps each database in its own lane (catalog, engine,
/// control plane); the classic single-environment path (Setup,
/// OnboardNewTables) uses one triple for every database.
struct LaneTargets {
  catalog::Catalog* catalog = nullptr;
  engine::QueryEngine* engine = nullptr;
  catalog::ControlPlane* control_plane = nullptr;  // optional
};

/// \brief Fleet generator with per-day event production.
class FleetWorkload {
 public:
  /// \brief One deferred table materialisation: a table's creation plus
  /// its initial (fragmented) load, with every random draw already
  /// taken. Drawing is the only part that consumes the fleet's shared
  /// random sequence, so ops can be materialised lazily per lane — the
  /// lazy fleet driver queues them on unhydrated lanes — as long as each
  /// lane replays its own ops in plan order. Materialize is pure given
  /// the op (the engine's own rng advances identically either way).
  struct TableOp {
    std::string db;
    std::string table;  // unqualified
    SimTime at = 0;
    bool partitioned = false;
    /// The initial load; `load.table` is the qualified name. Its
    /// partitions stay empty until Materialize: a queued op keeps only
    /// `months`, the number of most recent fleet months it loads.
    engine::WriteSpec load;
    int months = 0;
    /// Setup tables get the fleet's default compaction policy (applied
    /// only when the materialising lane has a control plane).
    bool set_policy = false;
    catalog::TablePolicy policy;
  };

  explicit FleetWorkload(FleetOptions options);

  /// Creates databases/tables and performs the initial (fragmented)
  /// load. Progress is deterministic in `seed`.
  Status Setup(catalog::Catalog* catalog, engine::QueryEngine* engine,
               catalog::ControlPlane* control_plane, SimTime at);

  /// Write + read events for simulation day `day` (0-based), spread over
  /// business hours. Includes onboarding of new tables (the returned
  /// events reference them only after `OnboardNewTables` ran for that
  /// day).
  std::vector<QueryEvent> EventsForDay(int day) const;

  /// Creates this day's newly onboarded tables (call before executing the
  /// day's events).
  Status OnboardNewTables(catalog::Catalog* catalog,
                          engine::QueryEngine* engine, int day, SimTime at);

  /// Draws the whole initial fleet (databases d0..dN in order, tables
  /// t0..tM within each) into deferred ops, consuming exactly the draws
  /// Setup would. Ops are grouped by database in database order. The
  /// caller owns database creation (CreateDatabase draws nothing and
  /// issues no RPCs); every database 0..num_databases-1 must exist in a
  /// lane's catalog before its ops materialise there.
  std::vector<TableOp> PlanSetup(SimTime at);

  /// Draws day `day`'s onboarded tables into deferred ops (same draws as
  /// OnboardNewTables).
  std::vector<TableOp> PlanOnboard(int day, SimTime at);

  /// Executes one drawn op against a lane: CreateTable + initial load
  /// (+ policy). No random draws; deterministic given the op.
  static Status Materialize(const LaneTargets& lane, const TableOp& op);

  /// Tenant database of a fleet event (the lane-partitioning key).
  static std::string DatabaseOf(const QueryEvent& event);

  /// All currently onboarded qualified table names.
  const std::vector<std::string>& TableNames() const { return tables_; }

  const FleetOptions& options() const { return options_; }

 private:
  struct TableInfo {
    std::string qualified_name;
    int64_t logical_bytes = 0;
    bool partitioned = false;
  };

  /// Draws one table's parameters from `rng` (the exact sequence the
  /// pre-split CreateAndLoadTable consumed) and registers it in
  /// tables_/infos_ so EventsForDay can target it.
  TableOp DrawTableOp(const std::string& db, const std::string& name,
                      SimTime at, Rng* rng);

  FleetOptions options_;
  Rng base_rng_;
  std::vector<std::string> tables_;
  std::vector<TableInfo> infos_;
};

}  // namespace autocomp::workload
