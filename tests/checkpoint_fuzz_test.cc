// Checkpoint decoding fails closed (DESIGN.md §10). A lane checkpoint is
// decoded by a dozen component decoders in sequence; a corrupt blob —
// truncated, with flipped bytes or with a run of 0xFF bytes — must come
// back from RestoreLaneState as a Status, never as a crash, a wild
// allocation or a hang. The blobs under test are real: a one-tenant
// fleet lane with a deferred control loop, so every section is
// populated, including the maintenance scheduler's ledger that the
// driver always writes. Run under ASan+UBSan (ctest -L fault) this also
// proves the decoders read nothing out of bounds. A blob written in the
// previous format is rejected by its version before any section decodes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/blob.h"
#include "sim/driver.h"
#include "sim/environment.h"
#include "sim/lane_checkpoint.h"
#include "sim/metrics.h"
#include "sim/presets.h"
#include "workload/fleet.h"

namespace autocomp::sim {
namespace {

DriverOptions LaneDriverOptions() {
  DriverOptions options;
  options.sample_interval = 4 * kHour;
  options.retention_interval = kDay;
  options.deferred_compaction = true;
  options.record_host_timings = false;
  return options;
}

/// Checkpoint of a one-tenant lane after two days of fleet traffic with
/// an hourly, deferred TABLE-5 control loop.
std::string DeferredLaneBlob() {
  SimEnvironment env;
  workload::FleetOptions fleet_options;
  fleet_options.num_databases = 1;
  fleet_options.tables_per_db = 4;
  fleet_options.daily_write_fraction = 0.5;
  fleet_options.seed = 77;
  workload::FleetWorkload fleet(fleet_options);
  EXPECT_TRUE(fleet
                  .Setup(&env.catalog(), &env.query_engine(),
                         &env.control_plane(), 0)
                  .ok());
  StrategyPreset preset;
  preset.scope = ScopeStrategy::kTable;
  preset.k = 5;
  preset.deferred_act = true;
  auto service = MakeMoopService(&env, preset);
  MetricsRecorder metrics;
  EventDriver driver(&env, &metrics, LaneDriverOptions());
  driver.AttachService(service.get());
  for (int day = 0; day < 2; ++day) {
    EXPECT_TRUE(fleet
                    .OnboardNewTables(&env.catalog(), &env.query_engine(),
                                      day, env.clock().Now())
                    .ok());
    EXPECT_TRUE(
        driver.Run(fleet.EventsForDay(day), (day + 1) * kDay).ok());
  }
  EXPECT_GT(metrics.TotalCount("compaction_commits"), 0)
      << "the lane never compacted; the scheduler section would be idle";
  auto blob = SaveLaneState(&env, &driver);
  EXPECT_TRUE(blob.ok()) << blob.status();
  return blob.ok() ? *blob : std::string();
}

/// Restores `blob` into a fresh environment/driver pair.
Status Restore(const std::string& blob) {
  SimEnvironment env;
  MetricsRecorder metrics;
  EventDriver driver(&env, &metrics, LaneDriverOptions());
  return RestoreLaneState(blob, &env, &driver);
}

/// Offsets to mutate: a stride over the whole blob plus every byte of
/// its tail, where the driver and scheduler sections live.
std::vector<size_t> Offsets(size_t size, size_t samples, size_t tail) {
  std::vector<size_t> offsets;
  const size_t stride = size / samples + 1;
  for (size_t i = 0; i < size; i += stride) offsets.push_back(i);
  for (size_t i = size > tail ? size - tail : 0; i < size; ++i) {
    offsets.push_back(i);
  }
  return offsets;
}

TEST(CheckpointFuzzTest, TruncatedLaneCheckpointsAreRejected) {
  const std::string blob = DeferredLaneBlob();
  ASSERT_FALSE(blob.empty());
  ASSERT_TRUE(Restore(blob).ok()) << "the intact blob must restore";
  for (const size_t length : Offsets(blob.size(), 150, 96)) {
    const Status restored = Restore(blob.substr(0, length));
    EXPECT_FALSE(restored.ok()) << "prefix of " << length << "/"
                                << blob.size() << " bytes restored";
  }
}

TEST(CheckpointFuzzTest, CorruptBytesReturnAStatus) {
  const std::string blob = DeferredLaneBlob();
  ASSERT_FALSE(blob.empty());
  int64_t rejected = 0;
  int64_t trials = 0;
  const auto trial = [&](const std::string& corrupt) {
    // Any Status is acceptable — a corrupt value byte can decode to a
    // different but well-formed lane. What matters is that the call
    // returns.
    if (!Restore(corrupt).ok()) ++rejected;
    ++trials;
  };
  for (const size_t offset : Offsets(blob.size(), 150, 96)) {
    for (const uint8_t mask : {0x01, 0x40, 0x80, 0xFF}) {
      std::string corrupt = blob;
      corrupt[offset] = static_cast<char>(corrupt[offset] ^ mask);
      trial(corrupt);
    }
    // A run of 0xFF bytes turns a length or count varint into a value
    // near 2^64, which a single flip cannot reach.
    std::string corrupt = blob;
    corrupt.replace(offset, 10, std::min<size_t>(10, blob.size() - offset),
                    '\xff');
    trial(corrupt);
  }
  EXPECT_GT(rejected, 0) << "no corruption detected in " << trials
                         << " trials";
}

TEST(CheckpointFuzzTest, StaleFormatVersionIsRejected) {
  const std::string blob = DeferredLaneBlob();
  ASSERT_FALSE(blob.empty());
  // Re-encode the header (magic, version) with the previous format's
  // version and keep the body as is: a blob saved by the previous build.
  common::BlobReader header(blob);
  const uint32_t magic = header.ReadU32();
  const uint32_t version = header.ReadU32();
  ASSERT_TRUE(header.ok());
  ASSERT_GT(version, 1u);
  common::BlobWriter stale;
  stale.WriteU32(magic);
  stale.WriteU32(version - 1);
  const std::string body = blob.substr(blob.size() - header.remaining());
  const Status restored = Restore(stale.Take() + body);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.message().find("version " + std::to_string(version - 1)),
            std::string::npos)
      << restored.ToString();
}

TEST(BlobReaderTest, CorruptLengthFailsClosed) {
  // A string whose length varint decodes to 2^64 - 1: `pos + n` wraps,
  // so the bound must be checked as `n > size - pos`.
  const std::string blob("\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01",
                         11);
  common::BlobReader reader(blob);
  EXPECT_EQ(reader.ReadString(), "");
  EXPECT_FALSE(reader.ok());
  // Failure is sticky: later reads return zero values.
  EXPECT_EQ(reader.ReadU64(), 0u);
  EXPECT_FALSE(reader.exhausted());
}

TEST(BlobReaderTest, CountAboveRemainingBytesFailsClosed) {
  common::BlobWriter writer;
  writer.WriteU64(3);
  writer.WriteU8(7);
  writer.WriteU8(8);
  writer.WriteU8(9);
  writer.WriteU64(1000);  // claims more elements than bytes remain
  writer.WriteU8(1);
  const std::string blob = writer.Take();
  common::BlobReader reader(blob);
  EXPECT_EQ(reader.ReadCount(), 3u);
  for (int i = 0; i < 3; ++i) reader.ReadU8();
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.ReadCount(), 0u);
  EXPECT_FALSE(reader.ok());
}

}  // namespace
}  // namespace autocomp::sim
