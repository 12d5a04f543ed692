#include "workload/fleet.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "lst/partition.h"
#include "lst/types.h"

namespace autocomp::workload {

namespace {

lst::Schema FleetSchema() {
  return lst::Schema(0, {{1, "id", lst::FieldType::kInt64, true},
                         {2, "event_date", lst::FieldType::kDate, true},
                         {3, "payload", lst::FieldType::kString, false}});
}

lst::PartitionSpec FleetPartitionSpec() {
  return lst::PartitionSpec(1, {{2, lst::Transform::kMonth, "month"}});
}

std::vector<std::string> FleetMonths() {
  std::vector<std::string> out;
  char buf[32];
  for (int year = 2023; year <= 2024; ++year) {
    for (int month = 1; month <= 12; ++month) {
      std::snprintf(buf, sizeof(buf), "month=%04d-%02d", year, month);
      out.emplace_back(buf);
    }
  }
  return out;
}

}  // namespace

FleetWorkload::FleetWorkload(FleetOptions options)
    : options_(options), base_rng_(options.seed) {}

FleetWorkload::TableOp FleetWorkload::DrawTableOp(const std::string& db,
                                                  const std::string& name,
                                                  SimTime at, Rng* rng) {
  TableOp op;
  op.db = db;
  op.table = name;
  op.at = at;
  op.partitioned = rng->Bernoulli(options_.partitioned_fraction);

  TableInfo info;
  info.qualified_name = db + "." + name;
  info.partitioned = op.partitioned;
  info.logical_bytes = static_cast<int64_t>(
      std::llround(rng->LogNormal(options_.size_mu, options_.size_sigma)));
  info.logical_bytes = std::clamp<int64_t>(info.logical_bytes, 64 * kMiB,
                                           2048LL * kGiB);

  op.load.table = info.qualified_name;
  op.load.kind = engine::WriteKind::kAppend;
  op.load.logical_bytes = info.logical_bytes;
  // Most fleets onboard with untuned writers; a minority are well-tuned.
  op.load.profile = rng->Bernoulli(0.25) ? engine::TunedPipelineProfile()
                                         : engine::UntunedUserJobProfile();
  if (op.partitioned) {
    op.months = 6 + static_cast<int>(rng->UniformInt(0, 17));
  }
  tables_.push_back(info.qualified_name);
  infos_.push_back(std::move(info));
  return op;
}

Status FleetWorkload::Materialize(const LaneTargets& lane,
                                  const TableOp& op) {
  if (lane.catalog == nullptr || lane.engine == nullptr) {
    return Status::InvalidArgument("no lane for database " + op.db);
  }
  auto table = lane.catalog->CreateTable(
      op.db, op.table, FleetSchema(),
      op.partitioned ? FleetPartitionSpec()
                     : lst::PartitionSpec::Unpartitioned());
  AUTOCOMP_RETURN_NOT_OK(table.status());
  engine::WriteSpec load = op.load;
  if (op.months > 0) {
    // The most recent months, newest first.
    const std::vector<std::string> months = FleetMonths();
    load.partitions.assign(months.rbegin(), months.rbegin() + op.months);
  }
  auto result = lane.engine->ExecuteWrite(load, op.at);
  AUTOCOMP_RETURN_NOT_OK(result.status());
  if (op.set_policy && lane.control_plane != nullptr) {
    lane.control_plane->SetPolicy(op.load.table, op.policy);
  }
  return Status::OK();
}

std::vector<FleetWorkload::TableOp> FleetWorkload::PlanSetup(SimTime at) {
  // All rng draws come from one shared sequence, so table parameters are
  // identical no matter how databases map onto lanes.
  Rng rng = base_rng_.Fork(0);
  std::vector<TableOp> ops;
  ops.reserve(static_cast<size_t>(options_.num_databases) *
              static_cast<size_t>(std::max(0, options_.tables_per_db)));
  char db_buf[32];
  char table_buf[32];
  for (int d = 0; d < options_.num_databases; ++d) {
    std::snprintf(db_buf, sizeof(db_buf), "tenant%03d", d);
    for (int t = 0; t < options_.tables_per_db; ++t) {
      std::snprintf(table_buf, sizeof(table_buf), "tbl%03d", t);
      TableOp op = DrawTableOp(db_buf, table_buf, at, &rng);
      op.set_policy = true;
      op.policy.target_file_size_bytes = 512 * kMiB;
      op.policy.snapshot_retention = 3 * kDay;
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

Status FleetWorkload::Setup(catalog::Catalog* catalog,
                            engine::QueryEngine* engine,
                            catalog::ControlPlane* control_plane, SimTime at) {
  if (catalog == nullptr || engine == nullptr) {
    return Status::InvalidArgument("fleet setup needs a catalog and an engine");
  }
  const LaneTargets lane{catalog, engine, control_plane};
  const std::vector<TableOp> ops = PlanSetup(at);
  // Databases first, then each database's tables in plan order — the
  // exact creation order of the pre-split eager setup.
  char db_buf[32];
  size_t next = 0;
  for (int d = 0; d < options_.num_databases; ++d) {
    std::snprintf(db_buf, sizeof(db_buf), "tenant%03d", d);
    AUTOCOMP_RETURN_NOT_OK(
        catalog->CreateDatabase(db_buf, options_.quota_objects_per_db));
    for (; next < ops.size() && ops[next].db == db_buf; ++next) {
      AUTOCOMP_RETURN_NOT_OK(Materialize(lane, ops[next]));
    }
  }
  return Status::OK();
}

std::vector<FleetWorkload::TableOp> FleetWorkload::PlanOnboard(int day,
                                                               SimTime at) {
  Rng rng = base_rng_.Fork(1000 + static_cast<uint64_t>(day));
  std::vector<TableOp> ops;
  ops.reserve(static_cast<size_t>(std::max(0, options_.new_tables_per_day)));
  char db_buf[32];
  char table_buf[48];
  for (int i = 0; i < options_.new_tables_per_day; ++i) {
    const int d = static_cast<int>(
        rng.UniformInt(0, options_.num_databases - 1));
    std::snprintf(db_buf, sizeof(db_buf), "tenant%03d", d);
    std::snprintf(table_buf, sizeof(table_buf), "new_d%03d_%02d", day, i);
    ops.push_back(DrawTableOp(db_buf, table_buf, at, &rng));
  }
  return ops;
}

Status FleetWorkload::OnboardNewTables(catalog::Catalog* catalog,
                                       engine::QueryEngine* engine, int day,
                                       SimTime at) {
  const LaneTargets lane{catalog, engine, nullptr};
  for (const TableOp& op : PlanOnboard(day, at)) {
    AUTOCOMP_RETURN_NOT_OK(Materialize(lane, op));
  }
  return Status::OK();
}

std::string FleetWorkload::DatabaseOf(const QueryEvent& event) {
  const std::string& qualified = event.is_write ? event.write.table
                                                : event.table;
  const size_t dot = qualified.find('.');
  return dot == std::string::npos ? qualified : qualified.substr(0, dot);
}

std::vector<QueryEvent> FleetWorkload::EventsForDay(int day) const {
  std::vector<QueryEvent> events;
  Rng rng = base_rng_.Fork(2000 + static_cast<uint64_t>(day));
  const SimTime day_start = static_cast<SimTime>(day) * kDay;
  const std::vector<std::string> months = FleetMonths();

  // Zipf-skewed daily writers: hot tables get written most days.
  const int64_t writers = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(
             static_cast<double>(infos_.size()) *
             options_.daily_write_fraction)));
  for (int64_t w = 0; w < writers; ++w) {
    const int64_t pick =
        rng.Zipf(static_cast<int64_t>(infos_.size()), 0.8);
    const TableInfo& info = infos_[static_cast<size_t>(pick)];
    QueryEvent e;
    e.time = day_start + 8 * kHour + rng.UniformInt(0, 10 * kHour);
    e.stream = "fleet-write";
    e.is_write = true;
    e.write.table = info.qualified_name;
    e.write.kind = rng.Bernoulli(0.3) ? engine::WriteKind::kOverwrite
                                      : engine::WriteKind::kAppend;
    e.write.logical_bytes = std::max<int64_t>(
        1 * kMiB, static_cast<int64_t>(std::llround(
                      static_cast<double>(info.logical_bytes) *
                      options_.daily_write_size_fraction *
                      rng.Uniform(0.5, 2.0))));
    e.write.profile = engine::UntunedUserJobProfile();
    if (info.partitioned) {
      const int64_t back = rng.Zipf(12, 1.3);
      e.write.partitions = {
          months[months.size() - 1 - static_cast<size_t>(back)]};
    }
    events.push_back(std::move(e));
  }

  // Scan-heavy daily workload (Figure 11a correlates its files-scanned
  // with compaction runs).
  const int64_t reads = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(
             static_cast<double>(infos_.size()) *
             options_.daily_reads_per_table)));
  for (int64_t r = 0; r < reads; ++r) {
    const int64_t pick =
        rng.Zipf(static_cast<int64_t>(infos_.size()), 0.6);
    QueryEvent e;
    e.time = day_start + 6 * kHour + rng.UniformInt(0, 14 * kHour);
    e.stream = "fleet-scan";
    e.is_write = false;
    e.table = infos_[static_cast<size_t>(pick)].qualified_name;
    events.push_back(std::move(e));
  }

  SortEvents(&events);
  return events;
}

}  // namespace autocomp::workload
