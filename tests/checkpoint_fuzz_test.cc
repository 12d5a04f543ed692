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
#include <cstdio>
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
  // A new string (tag 0, no shared prefix) whose suffix length varint
  // decodes to 2^64 - 1: `pos + n` wraps, so the bound must be checked as
  // `n > size - pos`.
  const std::string blob(
      "\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", 12);
  common::BlobReader reader(blob);
  EXPECT_EQ(reader.ReadString(), "");
  EXPECT_FALSE(reader.ok());
  // Failure is sticky: later reads return zero values.
  EXPECT_EQ(reader.ReadU64(), 0u);
  EXPECT_FALSE(reader.exhausted());
}

// A first occurrence is front-coded against the previous one: a shared
// prefix longer than that string can only come from a corrupt blob.
TEST(BlobReaderTest, SharedPrefixLongerThanPreviousFailsClosed) {
  // The very first string has no previous string to share with.
  {
    const std::string blob("\x00\x01\x01x\x05", 5);
    common::BlobReader reader(blob);
    EXPECT_EQ(reader.ReadStringView(), "");
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.ReadU64(), 0u);
  }
  common::BlobWriter writer;
  writer.WriteString("/data/a");
  writer.WriteU64(9);
  std::string blob = writer.Take();
  // tag 0, shared 8 (the previous string has 7 bytes), suffix "x".
  blob += std::string("\x00\x08\x01x\x05", 5);
  common::BlobReader reader(blob);
  EXPECT_EQ(reader.ReadStringView(), "/data/a");
  EXPECT_EQ(reader.ReadU64(), 9u);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.ReadStringView(), "");
  EXPECT_FALSE(reader.ok());
  // Failure is sticky: later reads return zero values.
  EXPECT_EQ(reader.ReadU64(), 0u);
  EXPECT_EQ(reader.ReadString(), "");
  EXPECT_FALSE(reader.exhausted());
}

TEST(BlobReaderTest, SuffixPastTheEndFailsClosed) {
  common::BlobWriter writer;
  writer.WriteString("/data/a");
  std::string blob = writer.Take();
  // tag 0, shared 6, a 10-byte suffix of which only 2 bytes remain.
  blob += std::string("\x00\x06\x0a" "bc", 5);
  common::BlobReader reader(blob);
  EXPECT_EQ(reader.ReadStringView(), "/data/a");
  EXPECT_EQ(reader.ReadStringView(), "");
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.ReadU8(), 0u);
  EXPECT_EQ(reader.ReadF64(), 0.0);
}

// Every view ReadStringView returned stays valid until the reader goes,
// however many strings came after it: the arena never moves a string
// (under ASan, one that did would be a use-after-free here). Sorted
// paths, as the NameNode writes them, front-code to under half of what
// the previous format (tag, length, whole string) spent on them.
TEST(BlobReaderTest, FrontCodedPathsOutliveEveryRead) {
  // One string longer than an arena chunk, then 10,000 sorted paths.
  std::vector<std::string> paths = {"/" + std::string(100'000, 'x')};
  for (int i = 0; i < 10'000; ++i) {
    char name[96];
    std::snprintf(name, sizeof(name),
                  "/warehouse/db%d/t%02d/data/m=2024-%02d/append-%06d.parquet",
                  i % 4, i % 25, 1 + i % 12, i);
    paths.emplace_back(name);
  }
  std::sort(paths.begin() + 1, paths.end());

  common::BlobWriter writer;
  writer.WriteString(paths[0]);
  const size_t before = writer.size();
  size_t v4_bytes = 0;
  for (size_t i = 1; i < paths.size(); ++i) {
    writer.WriteString(paths[i]);
    v4_bytes += 1 + paths[i].size();  // tag 0, then the bytes
    for (size_t n = paths[i].size(); n > 0; n >>= 7) ++v4_bytes;  // length
  }
  const size_t front_coded = writer.size() - before;
  // The 10,000 paths: 147,911 bytes front-coded, 570,000 in the v4 layout.
  EXPECT_LT(2 * front_coded, v4_bytes)
      << "front-coded " << front_coded << " bytes, v4 " << v4_bytes;
  for (size_t i = 0; i < paths.size(); i += 97) writer.WriteString(paths[i]);
  writer.WriteU64(42);
  const std::string blob = writer.Take();

  common::BlobReader reader(blob);
  std::vector<std::string_view> views;
  for (size_t i = 0; i < paths.size(); ++i) {
    views.push_back(reader.ReadStringView());
  }
  for (size_t i = 0; i < paths.size(); i += 97) {
    EXPECT_EQ(reader.ReadStringView().data(), views[i].data()) << i;
  }
  EXPECT_EQ(reader.ReadU64(), 42u);
  ASSERT_TRUE(reader.exhausted());
  for (size_t i = 0; i < paths.size(); ++i) {
    ASSERT_EQ(views[i], paths[i]) << i;
  }
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
