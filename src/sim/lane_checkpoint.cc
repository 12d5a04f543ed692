#include "sim/lane_checkpoint.h"

#include <string>

#include "common/blob.h"

namespace autocomp::sim {

namespace {

// Format tag: catches blobs fed to the wrong decoder (or a stale
// checkpoint after a format change) before component decoders start
// mis-reading fields.
constexpr uint32_t kLaneBlobMagic = 0x4C414E45;  // "LANE"
// v2: varint ints + interned strings; v3: the driver section always
// carries the maintenance scheduler's ledgers; v4: one NameNode section
// with no shard count, and no per-hour open() tally; v5: each string's
// first occurrence is front-coded against the previous first occurrence.
constexpr uint32_t kLaneBlobVersion = 5;

}  // namespace

Result<std::string> SaveLaneState(SimEnvironment* env, EventDriver* driver) {
  common::BlobWriter w;
  w.WriteU32(kLaneBlobMagic);
  w.WriteU32(kLaneBlobVersion);
  w.WriteI64(env->clock().Now());

  env->dfs().SaveState(&w);
  env->catalog().SaveState(&w);
  env->control_plane().SaveState(&w);
  env->query_cluster().SaveState(&w);
  env->compaction_cluster().SaveState(&w);
  env->query_engine().SaveState(&w);
  env->compaction_runner().SaveState(&w);
  env->fault_injector().SaveState(&w);
  AUTOCOMP_RETURN_NOT_OK(driver->SaveState(&w));
  return w.Take();
}

Status RestoreLaneState(const std::string& blob, SimEnvironment* env,
                        EventDriver* driver) {
  common::BlobReader r(blob);
  if (r.ReadU32() != kLaneBlobMagic) {
    return Status::Internal("lane checkpoint: bad magic");
  }
  if (const uint32_t version = r.ReadU32(); version != kLaneBlobVersion) {
    return Status::Internal("lane checkpoint: format version " +
                            std::to_string(version) + ", expected " +
                            std::to_string(kLaneBlobVersion));
  }
  const SimTime t = r.ReadI64();
  if (t < env->clock().Now()) {
    return Status::Internal("lane checkpoint: clock would run backwards");
  }
  env->clock().AdvanceTo(t);

  AUTOCOMP_RETURN_NOT_OK(env->dfs().RestoreState(&r));
  AUTOCOMP_RETURN_NOT_OK(env->catalog().RestoreState(&r));
  env->control_plane().RestoreState(&r);
  env->query_cluster().RestoreState(&r);
  env->compaction_cluster().RestoreState(&r);
  env->query_engine().RestoreState(&r);
  env->compaction_runner().RestoreState(&r);
  env->fault_injector().RestoreState(&r);
  AUTOCOMP_RETURN_NOT_OK(driver->RestoreState(&r));
  if (!r.ok() || !r.exhausted()) {
    return Status::Internal("lane checkpoint: trailing or truncated bytes");
  }
  return Status::OK();
}

}  // namespace autocomp::sim
