#include "storage/serialize.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "opt/query.h"
#include "storage/loader.h"
#include "util/random.h"
#include "workload/tpch.h"
#include "workload/twitter.h"

namespace jsontiles::storage {
namespace {

using exec::Access;
using exec::QueryContext;
using exec::ValueType;
using opt::QueryBlock;
using opt::TableRef;

std::vector<std::string> MixedDocs(size_t n) {
  Random rng(17);
  std::vector<std::string> docs;
  for (size_t i = 0; i < n; i++) {
    if (i % 3 == 0) {
      docs.push_back(R"({"a":)" + std::to_string(i) + R"(,"s":")" +
                     rng.NextString(3, 20) + R"(","d":"2021-0)" +
                     std::to_string(i % 9 + 1) + R"(-15","p":")" +
                     std::to_string(i % 90 + 10) + R"(.50"})");
    } else {
      docs.push_back(R"({"b":)" + std::to_string(i) + R"(,"f":)" +
                     std::to_string(0.5 + static_cast<double>(i)) +
                     R"(,"flag":)" + (i % 2 ? "true" : "false") + "}");
    }
  }
  return docs;
}

std::string RunProbeQuery(const Relation& rel) {
  QueryContext ctx;
  QueryBlock q;
  q.AddTable(TableRef::Rel(
      "t", &rel, exec::IsNotNull(Access("t", {"a"}, ValueType::kInt))));
  q.GroupBy({});
  q.Aggregate(exec::AggSpec::Sum(Access("t", {"a"}, ValueType::kInt)));
  q.Aggregate(exec::AggSpec::Min(Access("t", {"d"}, ValueType::kTimestamp)));
  q.Aggregate(exec::AggSpec::Sum(Access("t", {"p"}, ValueType::kFloat)));
  q.Aggregate(exec::AggSpec::CountStar());
  auto rows = q.Execute(ctx);
  std::string out;
  for (const auto& v : rows[0]) out += v.ToString() + "|";
  out += std::to_string(ctx.tiles_skipped);
  return out;
}

TEST(SerializeTest, RoundTripPreservesEverything) {
  tiles::TileConfig config;
  config.tile_size = 128;
  Loader loader(StorageMode::kTiles, config);
  auto rel = loader.Load(MixedDocs(1000), "mixed").MoveValueOrDie();

  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SerializeRelation(*rel, &bytes).ok());
  auto back = DeserializeRelation(bytes.data(), bytes.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const Relation& restored = *back.ValueOrDie();

  EXPECT_EQ(restored.name(), "mixed");
  EXPECT_EQ(restored.mode(), StorageMode::kTiles);
  EXPECT_EQ(restored.num_rows(), rel->num_rows());
  EXPECT_EQ(restored.tiles().size(), rel->tiles().size());
  EXPECT_EQ(restored.config().tile_size, 128u);
  // Documents byte-identical.
  for (size_t row = 0; row < rel->num_rows(); row += 97) {
    EXPECT_EQ(rel->Jsonb(row).ToJsonText(), restored.Jsonb(row).ToJsonText());
  }
  // Columns, headers and flags identical per tile.
  for (size_t t = 0; t < rel->tiles().size(); t++) {
    const auto& a = rel->tiles()[t];
    const auto& b = restored.tiles()[t];
    ASSERT_EQ(a.columns.size(), b.columns.size());
    for (size_t c = 0; c < a.columns.size(); c++) {
      EXPECT_EQ(a.columns[c].path, b.columns[c].path);
      EXPECT_EQ(a.columns[c].storage_type, b.columns[c].storage_type);
      EXPECT_EQ(a.columns[c].is_timestamp, b.columns[c].is_timestamp);
      EXPECT_EQ(a.columns[c].column.null_count(), b.columns[c].column.null_count());
    }
  }
  // Statistics survive.
  EXPECT_EQ(restored.stats().total_tuples(), rel->stats().total_tuples());
  // Queries agree — including tile-skipping behavior (bloom filters).
  EXPECT_EQ(RunProbeQuery(*rel), RunProbeQuery(restored));
}

TEST(SerializeTest, AllStorageModes) {
  for (StorageMode mode : {StorageMode::kJsonText, StorageMode::kJsonb,
                           StorageMode::kSinew, StorageMode::kTiles}) {
    Loader loader(mode, {});
    auto rel = loader.Load(MixedDocs(200), "m").MoveValueOrDie();
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(SerializeRelation(*rel, &bytes).ok());
    auto back = DeserializeRelation(bytes.data(), bytes.size());
    ASSERT_TRUE(back.ok()) << StorageModeName(mode);
    EXPECT_EQ(back.ValueOrDie()->num_rows(), 200u);
    if (mode == StorageMode::kJsonText) {
      EXPECT_EQ(back.ValueOrDie()->JsonText(7), rel->JsonText(7));
    }
  }
}

TEST(SerializeTest, SideRelationsIncluded) {
  workload::TwitterOptions options;
  options.num_tweets = 1500;
  auto docs = workload::GenerateTwitter(options);
  LoadOptions load_options;
  load_options.extract_arrays = true;
  load_options.array_min_avg_elements = 1.0;
  load_options.array_min_presence = 0.3;
  Loader loader(StorageMode::kTiles, {}, load_options);
  auto rel = loader.Load(docs, "tw").MoveValueOrDie();
  ASSERT_FALSE(rel->side_relations().empty());

  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SerializeRelation(*rel, &bytes).ok());
  auto back = DeserializeRelation(bytes.data(), bytes.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.ValueOrDie()->side_relations().size(),
            rel->side_relations().size());
  // The side query path still works on the restored relation.
  QueryContext ctx1, ctx2;
  auto a = workload::RunTwitterQuery(4, *rel, ctx1, true);
  auto b = workload::RunTwitterQuery(4, *back.ValueOrDie(), ctx2, true);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(a[i][1].int_value(), b[i][1].int_value());
  }
}

TEST(SerializeTest, FileRoundTrip) {
  Loader loader(StorageMode::kTiles, {});
  auto rel = loader.Load(MixedDocs(300), "f").MoveValueOrDie();
  std::string path = ::testing::TempDir() + "/jsontiles_serialize_test.bin";
  ASSERT_TRUE(SaveRelation(*rel, path).ok());
  auto back = LoadRelation(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.ValueOrDie()->num_rows(), 300u);
  std::remove(path.c_str());
}

TEST(SerializeTest, CorruptionRejected) {
  Loader loader(StorageMode::kTiles, {});
  auto rel = loader.Load(MixedDocs(100), "c").MoveValueOrDie();
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SerializeRelation(*rel, &bytes).ok());
  // Bad magic.
  {
    auto bad = bytes;
    bad[0] = 'X';
    EXPECT_FALSE(DeserializeRelation(bad.data(), bad.size()).ok());
  }
  // Truncations at many points must fail cleanly, never crash.
  for (size_t cut : {size_t{5}, bytes.size() / 4, bytes.size() / 2,
                     bytes.size() - 3}) {
    EXPECT_FALSE(DeserializeRelation(bytes.data(), cut).ok());
  }
  // Trailing garbage.
  {
    auto bad = bytes;
    bad.push_back(0xFF);
    EXPECT_FALSE(DeserializeRelation(bad.data(), bad.size()).ok());
  }
  // Random byte flips: either a clean error or a successful parse (flips in
  // document payload bytes are data, not structure) — never a crash.
  Random rng(5);
  for (int i = 0; i < 200; i++) {
    auto bad = bytes;
    bad[rng.Uniform(bad.size())] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    auto result = DeserializeRelation(bad.data(), bad.size());
    (void)result;
  }
  EXPECT_FALSE(LoadRelation("/nonexistent/path.bin").ok());
}

// Counts and lengths in a relation file are varints read before the bytes
// they describe. Values near 2^64 must be rejected without wrapping the
// arithmetic that checks them (and without allocating what they claim).
TEST(SerializeTest, HostileCountsRejected) {
  constexpr int64_t kFirst = 0x1122334455667700;
  std::vector<std::string> docs;
  for (int64_t i = 0; i < 100; i++) {
    docs.push_back(R"({"a":)" + std::to_string(kFirst + i) + "}");
  }
  Loader loader(StorageMode::kTiles, {});
  auto rel = loader.Load(docs, "v").MoveValueOrDie();
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SerializeRelation(*rel, &bytes).ok());
  ASSERT_TRUE(DeserializeRelation(bytes.data(), bytes.size()).ok());

  // Replaces bytes [pos, pos + len) and expects a clean parse error.
  auto expect_rejected = [&](size_t pos, size_t len,
                             std::vector<uint8_t> with, const char* what) {
    std::vector<uint8_t> bad(bytes.begin(), bytes.begin() + pos);
    bad.insert(bad.end(), with.begin(), with.end());
    bad.insert(bad.end(), bytes.begin() + pos + len, bytes.end());
    auto result = DeserializeRelation(bad.data(), bad.size());
    ASSERT_FALSE(result.ok()) << what;
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << what;
  };
  const std::vector<uint8_t> kTwoPow61 = {0x80, 0x80, 0x80, 0x80, 0x80,
                                          0x80, 0x80, 0x80, 0x20};
  const std::vector<uint8_t> kMaxU64 = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                        0xFF, 0xFF, 0xFF, 0xFF, 0x01};

  // Name length (after magic, version and mode): 2^64 - 1 wraps the reader's
  // position check.
  ASSERT_EQ(bytes[6], 1);
  expect_rejected(6, 1, kMaxU64, "string length");

  // The extracted column's int64 vector: varint 100, varint 800, then the
  // values little-endian. A count of 2^61 makes count * 8 wrap to 0, so
  // pair it with an empty payload.
  std::vector<uint8_t> vec = {100, 0xA0, 0x06};
  for (int b = 0; b < 8; b++) {
    vec.push_back(
        static_cast<uint8_t>(static_cast<uint64_t>(kFirst) >> (8 * b)));
  }
  auto at = std::search(bytes.begin(), bytes.end(), vec.begin(), vec.end());
  ASSERT_NE(at, bytes.end());
  const size_t pos = static_cast<size_t>(at - bytes.begin());
  std::vector<uint8_t> empty_vec = kTwoPow61;
  empty_vec.push_back(0);
  expect_rejected(pos, 3 + 800, empty_vec, "vector count");

  // Just before it, the column's validity bits: varint 100, varint 13, then
  // 13 bytes. A count of 2^64 - 1 makes (count + 7) / 8 wrap to 0.
  ASSERT_GE(pos, 15u);
  ASSERT_EQ(bytes[pos - 15], 100);
  ASSERT_EQ(bytes[pos - 14], 13);
  std::vector<uint8_t> empty_bits = kMaxU64;
  empty_bits.push_back(0);
  expect_rejected(pos - 15, 15, empty_bits, "bit vector count");
}

// Opening a relation restores each tile's bloom filter as written; it must
// not add the column paths a second time, or the inserted count drifts with
// every save/open cycle.
TEST(SerializeTest, ReopenedTpchTilesSerializeIdentically) {
  workload::TpchOptions options;
  options.scale_factor = 0.002;
  const workload::TpchData data = workload::GenerateTpch(options);
  Loader loader(StorageMode::kTiles, {});
  auto rel = loader.Load(data.combined, "tpch").MoveValueOrDie();
  std::vector<uint8_t> before;
  ASSERT_TRUE(SerializeRelation(*rel, &before).ok());

  std::string path = ::testing::TempDir() + "/jsontiles_reopen_test.bin";
  ASSERT_TRUE(SaveRelation(*rel, path).ok());
  auto back = LoadRelation(path);
  std::remove(path.c_str());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const Relation& reopened = *back.ValueOrDie();
  ASSERT_EQ(reopened.tiles().size(), rel->tiles().size());
  for (size_t t = 0; t < rel->tiles().size(); t++) {
    EXPECT_EQ(reopened.tiles()[t].seen_paths().num_inserted(),
              rel->tiles()[t].seen_paths().num_inserted())
        << "tile " << t;
  }
  std::vector<uint8_t> after;
  ASSERT_TRUE(SerializeRelation(reopened, &after).ok());
  EXPECT_EQ(after.size(), before.size());
  EXPECT_TRUE(after == before);
}

}  // namespace
}  // namespace jsontiles::storage
