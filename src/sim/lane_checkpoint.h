/// \file lane_checkpoint.h
/// \brief Whole-lane checkpoint/restore for the fleet evictor
/// (DESIGN.md §10).
///
/// A fleet lane is one tenant deployment: a SimEnvironment plus the
/// EventDriver running its timeline. SaveLaneState serializes every
/// piece of resumable state — clock time, the NameNode's namespace and
/// RPC tallies, catalog metadata/lineage, retention policies, cluster
/// accumulators, engine/runner counters and RNG cursors, fault-injector
/// hit streams, and the driver's timer scalars and scheduler ledgers —
/// into one compact blob.
/// RestoreLaneState replays the blob into a *freshly constructed*
/// environment/driver pair built with the lane's original options, in
/// O(state) instead of O(replay). Restores are bit-exact: a lane that
/// is evicted and restored produces the same metrics, trace digest and
/// RPC stream as one that stayed resident (NFR2).
///
/// Not checkpointed (survive eviction as fleet-driver Lane members):
/// the MetricsRecorder, the TraceRecorder, per-lane workload events and
/// spill bookkeeping. Not checkpointable: inflight compactions — the
/// caller must only evict quiescent drivers (EventDriver::Quiescent).

#pragma once

#include <string>

#include "common/status.h"
#include "sim/driver.h"
#include "sim/environment.h"

namespace autocomp::sim {

/// \brief Serializes a quiescent lane into a compact blob. Fails with
/// Internal if the driver has inflight or queued compactions.
Result<std::string> SaveLaneState(SimEnvironment* env, EventDriver* driver);

/// \brief Restores a blob produced by SaveLaneState into a freshly
/// constructed environment/driver pair (same options the evicted lane
/// was built with; the caller re-wires the epoch-load view and fault
/// arming afterwards). Fails with Internal on a malformed, truncated or
/// length-mismatched blob, in every build type — never by crashing.
Status RestoreLaneState(const std::string& blob, SimEnvironment* env,
                        EventDriver* driver);

}  // namespace autocomp::sim
