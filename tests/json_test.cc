// Tests for the JSON document model and the table-metadata
// serialization (round-trips, storage footprint, expiry).

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "common/json.h"
#include "common/random.h"
#include "lst/metadata_json.h"
#include "lst/table.h"
#include "lst/transaction.h"
#include "storage/namenode.h"

namespace autocomp {
namespace {

// ------------------------------------------------------------------ JSON

TEST(JsonTest, ScalarsRoundTrip) {
  for (const std::string doc :
       {"null", "true", "false", "42", "-7", "3.5", "\"hi\""}) {
    auto parsed = JsonValue::Parse(doc);
    ASSERT_TRUE(parsed.ok()) << doc;
    EXPECT_EQ(parsed->Dump(), doc);
  }
}

TEST(JsonTest, IntegersPreservedExactly) {
  const int64_t big = 9007199254740993LL;  // not representable as double
  auto parsed = JsonValue::Parse(std::to_string(big));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->type(), JsonValue::Type::kInt);
  EXPECT_EQ(parsed->as_int(), big);
}

TEST(JsonTest, DoublesKeepDoubleness) {
  auto parsed = JsonValue::Parse("2.0");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->type(), JsonValue::Type::kDouble);
  // Dump must re-parse as a double, not an int.
  auto reparsed = JsonValue::Parse(parsed->Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->type(), JsonValue::Type::kDouble);
}

TEST(JsonTest, StringEscapes) {
  JsonValue v(std::string("a\"b\\c\nd\te\x01"));
  const std::string dumped = v.Dump();
  auto parsed = JsonValue::Parse(dumped);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), v.as_string());
}

TEST(JsonTest, UnicodeEscapeDecodesToUtf8) {
  auto parsed = JsonValue::Parse("\"caf\\u00e9\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "caf\xc3\xa9");
}

TEST(JsonTest, NestedStructures) {
  const std::string doc =
      R"({"a":[1,2,{"b":true}],"c":{"d":null,"e":[[]]}})";
  auto parsed = JsonValue::Parse(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("a").size(), 3u);
  EXPECT_TRUE(parsed->Get("a")[2].Get("b").as_bool());
  EXPECT_TRUE(parsed->Get("c").Get("d").is_null());
  EXPECT_EQ(parsed->Dump(), doc);  // members already sorted here
}

TEST(JsonTest, WhitespaceTolerant) {
  auto parsed = JsonValue::Parse("  {\n \"k\" :\t[ 1 , 2 ]\n}  ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("k").size(), 2u);
}

TEST(JsonTest, MalformedInputsRejected) {
  for (const std::string doc :
       {"", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
        "{\"a\":1}trailing", "[1 2]", "{'a':1}", "nul"}) {
    EXPECT_FALSE(JsonValue::Parse(doc).ok()) << doc;
  }
}

TEST(JsonTest, CheckedAccessors) {
  auto parsed = JsonValue::Parse(R"({"n":1,"s":"x"})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Get("n").AsInt().ok());
  EXPECT_FALSE(parsed->Get("n").AsString().ok());
  EXPECT_FALSE(parsed->Get("s").AsInt().ok());
  EXPECT_FALSE(parsed->Get("missing").AsBool().ok());
}

TEST(JsonTest, DeterministicDump) {
  JsonValue obj = JsonValue::Object();
  obj.Set("zebra", 1);
  obj.Set("apple", 2);
  EXPECT_EQ(obj.Dump(), R"({"apple":2,"zebra":1})");
}

// ------------------------------------------------- metadata round trip

class MetadataJsonTest : public ::testing::Test {
 protected:
  MetadataJsonTest() : nn_(&clock_), catalog_(&clock_, &nn_) {
    EXPECT_TRUE(catalog_.CreateDatabase("db").ok());
  }

  lst::TableMetadataPtr BuildRichMetadata() {
    auto table = catalog_.CreateTable(
        "db", "t",
        lst::Schema(0, {{1, "id", lst::FieldType::kInt64, true},
                        {2, "d", lst::FieldType::kDate, true},
                        {3, "s", lst::FieldType::kString, false}}),
        lst::PartitionSpec(1, {{2, lst::Transform::kMonth, "m"}}));
    EXPECT_TRUE(table.ok());
    {
      auto txn = table->NewTransaction();
      lst::DataFile f1{"/data/db/t/a", "m=2024-01",
                       lst::FileContent::kData, 100, 10};
      lst::DataFile f2{"/data/db/t/b", "m=2024-02",
                       lst::FileContent::kPositionDeletes, 20, 2};
      f2.clustered = true;
      EXPECT_TRUE(txn->Append({f1, f2}).ok());
      EXPECT_TRUE(txn->Commit().ok());
    }
    clock_.Advance(kHour);
    {
      auto txn = table->NewTransaction();
      lst::DataFile merged{"/data/db/t/c", "m=2024-01",
                           lst::FileContent::kData, 90, 10};
      EXPECT_TRUE(txn->RewriteFiles({"/data/db/t/a"}, {merged}).ok());
      EXPECT_TRUE(txn->Commit().ok());
    }
    auto meta = catalog_.LoadTable("db.t");
    EXPECT_TRUE(meta.ok());
    return *meta;
  }

  SimulatedClock clock_{1000};
  storage::NameNode nn_;
  catalog::Catalog catalog_;
};

TEST_F(MetadataJsonTest, RoundTripPreservesEverything) {
  lst::TableMetadataPtr original = BuildRichMetadata();
  const std::string json = lst::TableMetadataToJson(*original);
  auto restored = lst::TableMetadataFromJson(json);
  ASSERT_TRUE(restored.ok()) << restored.status();
  const lst::TableMetadata& r = **restored;

  EXPECT_EQ(r.name(), original->name());
  EXPECT_EQ(r.location(), original->location());
  EXPECT_EQ(r.version(), original->version());
  EXPECT_EQ(r.created_at(), original->created_at());
  EXPECT_EQ(r.last_updated_at(), original->last_updated_at());
  EXPECT_EQ(r.current_snapshot_id(), original->current_snapshot_id());
  EXPECT_EQ(r.next_snapshot_id(), original->next_snapshot_id());
  EXPECT_EQ(r.next_manifest_id(), original->next_manifest_id());
  EXPECT_EQ(r.next_sequence_number(), original->next_sequence_number());
  EXPECT_EQ(r.schema().fields().size(), original->schema().fields().size());
  EXPECT_EQ(r.partition_spec().ToString(),
            original->partition_spec().ToString());
  EXPECT_EQ(r.snapshots().size(), original->snapshots().size());
  EXPECT_EQ(r.live_file_count(), original->live_file_count());
  EXPECT_EQ(r.live_bytes(), original->live_bytes());

  // File-level details survive.
  const auto files = r.LiveFiles();
  ASSERT_EQ(files.size(), 2u);
  bool saw_delete = false, saw_clustered = false;
  for (const lst::DataFile& f : files) {
    if (f.content == lst::FileContent::kPositionDeletes) saw_delete = true;
    if (f.clustered) saw_clustered = true;
    EXPECT_GT(f.added_snapshot_id, 0);
  }
  EXPECT_TRUE(saw_delete);
  EXPECT_TRUE(saw_clustered);

  // Conflict-validation state survives (removed paths, touched parts).
  const lst::Snapshot* snap = r.current_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->removed_paths.Contains("/data/db/t/a"));
  EXPECT_EQ(snap->touched_partitions.count("m=2024-01"), 1u);

  // Serialization is stable: dump(restore(dump(x))) == dump(x).
  EXPECT_EQ(lst::TableMetadataToJson(r), json);
}

TEST_F(MetadataJsonTest, RestoredMetadataSupportsNewCommits) {
  lst::TableMetadataPtr original = BuildRichMetadata();
  auto restored =
      lst::TableMetadataFromJson(lst::TableMetadataToJson(*original));
  ASSERT_TRUE(restored.ok());
  // Swap the restored metadata in and keep committing.
  ASSERT_TRUE(catalog_
                  .CommitTable("db.t", original->version(),
                               lst::TableMetadata::Builder(**restored)
                                   .Build()
                                   .value())
                  .ok());
  auto table = catalog_.GetTable("db.t");
  auto txn = table->NewTransaction();
  ASSERT_TRUE(
      txn->Append({lst::DataFile{"/data/db/t/d", "m=2024-03",
                                 lst::FileContent::kData, 5, 1}})
          .ok());
  auto committed = txn->Commit();
  ASSERT_TRUE(committed.ok());
  // New ids continue from the restored counters (no collisions).
  const auto files = (*catalog_.LoadTable("db.t"))->LiveFiles();
  std::set<int64_t> snapshot_ids;
  for (const lst::Snapshot& s : (*catalog_.LoadTable("db.t"))->snapshots()) {
    EXPECT_TRUE(snapshot_ids.insert(s.snapshot_id).second);
  }
  EXPECT_EQ(files.size(), 3u);
}

// A document may list removed paths in any order and with repeats (the
// encoder writes them sorted): the decoder sorts and deduplicates them,
// and rejects a path that is not a string.
TEST_F(MetadataJsonTest, UnsortedRemovedPathsAreSortedOnDecode) {
  const std::string json = lst::TableMetadataToJson(*BuildRichMetadata());
  const std::string key = "\"removed-paths\":[\"/data/db/t/a\"]";
  const size_t at = json.rfind(key);
  ASSERT_NE(at, std::string::npos) << json;
  std::string shuffled = json;
  shuffled.replace(at, key.size(),
                   "\"removed-paths\":[\"/z\",\"/data/db/t/a\",\"/m\",\"/z\"]");
  auto restored = lst::TableMetadataFromJson(shuffled);
  ASSERT_TRUE(restored.ok()) << restored.status();
  const lst::SortedPathList& removed =
      (*restored)->current_snapshot()->removed_paths;
  EXPECT_EQ(std::vector<std::string_view>(removed.begin(), removed.end()),
            (std::vector<std::string_view>{"/data/db/t/a", "/m", "/z"}));
  EXPECT_NE(lst::TableMetadataToJson(**restored)
                .find("\"removed-paths\":[\"/data/db/t/a\",\"/m\",\"/z\"]"),
            std::string::npos);

  std::string not_a_string = json;
  not_a_string.replace(at, key.size(), "\"removed-paths\":[7]");
  EXPECT_FALSE(lst::TableMetadataFromJson(not_a_string).ok());
}

TEST_F(MetadataJsonTest, MalformedDocumentsRejected) {
  EXPECT_FALSE(lst::TableMetadataFromJson("{}").ok());
  EXPECT_FALSE(lst::TableMetadataFromJson("not json").ok());
  EXPECT_FALSE(
      lst::TableMetadataFromJson(R"({"format-version":99})").ok());
}

TEST_F(MetadataJsonTest, FootprintPersistsAndCountsObjects) {
  lst::TableMetadataPtr meta = BuildRichMetadata();
  const int64_t before = nn_.AggregateStats().file_count;
  auto created = lst::PersistMetadataFootprint(&nn_, *meta);
  ASSERT_TRUE(created.ok());
  EXPECT_GT(*created, 0);
  EXPECT_EQ(nn_.AggregateStats().file_count, before + *created);
  // Idempotent: persisting the same version again creates nothing.
  auto again = lst::PersistMetadataFootprint(&nn_, *meta);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0);
  // The metadata objects land under the table's metadata/ directory and
  // count toward namespace quotas (the §2 cause-iv mechanism).
  const auto listed = nn_.ListFiles(meta->location() + "/metadata");
  EXPECT_EQ(static_cast<int64_t>(listed.size()), *created);
}

TEST_F(MetadataJsonTest, FootprintExpiryRemovesOldVersions) {
  lst::TableMetadataPtr meta = BuildRichMetadata();
  ASSERT_TRUE(lst::PersistMetadataFootprint(&nn_, *meta).ok());
  // Persist a successor version too.
  auto next = lst::TableMetadata::Builder(*meta).Build();
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(lst::PersistMetadataFootprint(&nn_, **next).ok());

  auto removed =
      lst::ExpireMetadataFootprint(&nn_, **next, meta->version());
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1);  // only the older vNNN.metadata.json
  // The newest version file must survive.
  char name[64];
  std::snprintf(name, sizeof(name), "/metadata/v%06lld.metadata.json",
                static_cast<long long>((*next)->version()));
  EXPECT_TRUE(nn_.Exists((*next)->location() + name));
}


// ------------------------------------------- randomized round-trips

/// Builds a random JSON tree (bounded depth/size), deterministically.
JsonValue RandomJson(Rng* rng, int depth) {
  const double pick = rng->NextDouble();
  if (depth <= 0 || pick < 0.35) {
    switch (rng->UniformInt(0, 3)) {
      case 0:
        return JsonValue(rng->UniformInt(-1'000'000'000, 1'000'000'000));
      case 1:
        return JsonValue(rng->Bernoulli(0.5));
      case 2: {
        std::string s;
        const int len = static_cast<int>(rng->UniformInt(0, 12));
        for (int i = 0; i < len; ++i) {
          // Mix printable ASCII with characters that need escaping.
          const char alphabet[] = "ab\\\"z/\n\t 0",
                     *end = alphabet + sizeof(alphabet) - 1;
          s.push_back(alphabet[rng->UniformInt(0, end - alphabet - 1)]);
        }
        return JsonValue(std::move(s));
      }
      default:
        return JsonValue();
    }
  }
  if (pick < 0.7) {
    JsonValue arr = JsonValue::Array();
    const int n = static_cast<int>(rng->UniformInt(0, 5));
    for (int i = 0; i < n; ++i) arr.Append(RandomJson(rng, depth - 1));
    return arr;
  }
  JsonValue obj = JsonValue::Object();
  const int n = static_cast<int>(rng->UniformInt(0, 5));
  for (int i = 0; i < n; ++i) {
    obj.Set("k" + std::to_string(rng->UniformInt(0, 9)),
            RandomJson(rng, depth - 1));
  }
  return obj;
}

class JsonRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonRoundTripTest, DumpParseDumpIsStable) {
  Rng rng(GetParam());
  const JsonValue original = RandomJson(&rng, 4);
  const std::string dumped = original.Dump();
  auto parsed = JsonValue::Parse(dumped);
  ASSERT_TRUE(parsed.ok()) << dumped << ": " << parsed.status();
  // Dump is canonical: round-tripping reproduces it byte for byte.
  EXPECT_EQ(parsed->Dump(), dumped);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripTest,
                         ::testing::Range(uint64_t{500}, uint64_t{530}));

}  // namespace
}  // namespace autocomp
