#include "io/svs_snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "format_golden.h"
#include "io/binary_format.h"
#include "sim/fault_injector.h"
#include "test_util.h"

namespace vz::io {
namespace {

using ::vz::testing::MakeMap;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(BinaryFormatTest, RoundTripsScalars) {
  BinaryWriter writer;
  writer.WriteU8(7);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(1ULL << 60);
  writer.WriteI64(-42);
  writer.WriteF32(1.5f);
  writer.WriteF64(-2.25);
  writer.WriteString("video-zilla");
  writer.WriteFloats({1.0f, 2.0f, 3.0f});

  BinaryReader reader(writer.buffer());
  EXPECT_EQ(*reader.ReadU8(), 7);
  EXPECT_EQ(*reader.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*reader.ReadU64(), 1ULL << 60);
  EXPECT_EQ(*reader.ReadI64(), -42);
  EXPECT_FLOAT_EQ(*reader.ReadF32(), 1.5f);
  EXPECT_DOUBLE_EQ(*reader.ReadF64(), -2.25);
  EXPECT_EQ(*reader.ReadString(), "video-zilla");
  EXPECT_EQ(*reader.ReadFloats(), (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryFormatTest, TruncationIsAnError) {
  BinaryWriter writer;
  writer.WriteU64(5);  // claims a 5-byte string follows
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(reader.ReadString().ok());
  BinaryReader empty("");
  EXPECT_FALSE(empty.ReadU32().ok());
}

TEST(BinaryFormatTest, FileRoundTrip) {
  const std::string path = TempPath("fmt.bin");
  BinaryWriter writer;
  writer.WriteString("persisted");
  ASSERT_TRUE(writer.Flush(path).ok());
  auto reader = BinaryReader::FromFile(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(*reader->ReadString(), "persisted");
  std::remove(path.c_str());
  EXPECT_FALSE(BinaryReader::FromFile(path).ok());
}

void FillStore(core::SvsStore* store_ptr) {
  core::SvsStore& store = *store_ptr;
  Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    const core::SvsId id =
        store.Create("cam-" + std::to_string(i % 2), i * 100, i * 100 + 90,
                     MakeMap(10 + static_cast<size_t>(i), 6, i * 2.0, 0.4,
                             static_cast<uint64_t>(i + 1)));
    auto svs = store.GetMutable(id);
    EXPECT_TRUE(svs.ok());
    auto rep = core::BuildRepresentative((*svs)->features(),
                                         core::RepresentativeOptions{}, &rng);
    EXPECT_TRUE(rep.ok());
    (*svs)->set_representative(*rep);
    (*svs)->set_frame_ids({i * 10LL, i * 10LL + 1});
    (*svs)->set_encoded_bytes(static_cast<size_t>(1000 + i));
    (*svs)->RecordAccess(i * 100 + 95);
  }
}

TEST(SvsSnapshotTest, RoundTripPreservesEverything) {
  const std::string path = TempPath("store.vzss");
  core::SvsStore original;
  FillStore(&original);
  ASSERT_TRUE(SaveSvsStore(original, path).ok());

  core::SvsStore loaded;
  ASSERT_TRUE(LoadSvsStore(path, &loaded).ok());
  ASSERT_EQ(loaded.size(), original.size());
  for (core::SvsId id : original.AllIds()) {
    auto a = original.Get(id);
    auto b = loaded.Get(id);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ((*a)->camera(), (*b)->camera());
    EXPECT_EQ((*a)->start_ms(), (*b)->start_ms());
    EXPECT_EQ((*a)->end_ms(), (*b)->end_ms());
    EXPECT_EQ((*a)->frame_ids(), (*b)->frame_ids());
    EXPECT_EQ((*a)->encoded_bytes(), (*b)->encoded_bytes());
    EXPECT_EQ((*a)->access_count(), (*b)->access_count());
    EXPECT_EQ((*a)->last_access_ms(), (*b)->last_access_ms());
    ASSERT_EQ((*a)->features().size(), (*b)->features().size());
    for (size_t i = 0; i < (*a)->features().size(); ++i) {
      EXPECT_EQ((*a)->features().vector(i), (*b)->features().vector(i));
      EXPECT_DOUBLE_EQ((*a)->features().weight(i),
                       (*b)->features().weight(i));
    }
    ASSERT_EQ((*a)->representative().size(), (*b)->representative().size());
    for (size_t c = 0; c < (*a)->representative().size(); ++c) {
      const auto& ca = (*a)->representative().centers()[c];
      const auto& cb = (*b)->representative().centers()[c];
      EXPECT_EQ(ca.center, cb.center);
      EXPECT_DOUBLE_EQ(ca.weight, cb.weight);
      EXPECT_DOUBLE_EQ(ca.boundary, cb.boundary);
      EXPECT_DOUBLE_EQ(ca.mean_member_distance, cb.mean_member_distance);
      EXPECT_EQ(ca.last_hit_ms, cb.last_hit_ms);
    }
  }
  std::remove(path.c_str());
}

TEST(SvsSnapshotTest, RejectsGarbageAndWrongVersion) {
  const std::string path = TempPath("garbage.vzss");
  {
    BinaryWriter writer;
    writer.WriteU32(0x12345678);  // wrong magic
    ASSERT_TRUE(writer.Flush(path).ok());
  }
  core::SvsStore store;
  EXPECT_FALSE(LoadSvsStore(path, &store).ok());
  {
    BinaryWriter writer;
    writer.WriteU32(kSnapshotMagic);
    writer.WriteU32(kSnapshotVersion + 7);
    ASSERT_TRUE(writer.Flush(path).ok());
  }
  EXPECT_FALSE(LoadSvsStore(path, &store).ok());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(LoadSvsStore(path, nullptr).ok());
  std::remove(path.c_str());
}

TEST(SvsSnapshotTest, RejectsTruncatedSnapshot) {
  const std::string path = TempPath("trunc.vzss");
  core::SvsStore original;
  FillStore(&original);
  ASSERT_TRUE(SaveSvsStore(original, path).ok());
  // Truncate the file in half.
  auto reader = BinaryReader::FromFile(path);
  ASSERT_TRUE(reader.ok());
  {
    BinaryWriter writer;
    // Rewrite only the first half of the bytes.
    std::string data;
    {
      std::ifstream in(path, std::ios::binary);
      data.assign((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  }
  core::SvsStore store;
  EXPECT_FALSE(LoadSvsStore(path, &store).ok());
  std::remove(path.c_str());
}

void ExpectStoresEqual(const core::SvsStore& a, const core::SvsStore& b,
                       size_t limit) {
  size_t compared = 0;
  for (core::SvsId id : a.AllIds()) {
    if (compared++ == limit) break;
    auto sa = a.Get(id);
    auto sb = b.Get(id);
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(sb.ok());
    EXPECT_EQ((*sa)->camera(), (*sb)->camera());
    EXPECT_EQ((*sa)->start_ms(), (*sb)->start_ms());
    EXPECT_EQ((*sa)->end_ms(), (*sb)->end_ms());
    EXPECT_EQ((*sa)->frame_ids(), (*sb)->frame_ids());
    ASSERT_EQ((*sa)->features().size(), (*sb)->features().size());
    for (size_t i = 0; i < (*sa)->features().size(); ++i) {
      EXPECT_EQ((*sa)->features().vector(i), (*sb)->features().vector(i));
    }
  }
}

TEST(SvsSnapshotTest, DetectsSingleBitFlipAnywhere) {
  const std::string path = TempPath("flip.vzss");
  core::SvsStore original;
  FillStore(&original);
  ASSERT_TRUE(SaveSvsStore(original, path).ok());
  ASSERT_TRUE(sim::FaultInjector::FlipBits(path, 1, /*seed=*/99).ok());

  core::SvsStore store;
  EXPECT_FALSE(LoadSvsStore(path, &store).ok());
  EXPECT_EQ(store.size(), 0u);  // all-or-nothing: nothing appended
  std::remove(path.c_str());
}

TEST(SvsSnapshotTest, SalvageRecoversValidPrefixOfTornSnapshot) {
  const std::string path = TempPath("torn.vzss");
  core::SvsStore original;
  FillStore(&original);
  ASSERT_TRUE(SaveSvsStore(original, path).ok());
  size_t full_size = 0;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    full_size = static_cast<size_t>(in.tellg());
  }
  // Tear off the last ~40%: the footer, some records and likely part of one.
  ASSERT_TRUE(sim::FaultInjector::TruncateFile(path, full_size * 6 / 10).ok());

  // Default mode refuses the torn file outright.
  core::SvsStore strict;
  EXPECT_FALSE(LoadSvsStore(path, &strict).ok());
  EXPECT_EQ(strict.size(), 0u);

  // Salvage mode recovers the intact record prefix.
  core::SvsStore salvage;
  SnapshotLoadReport report;
  SnapshotLoadOptions options;
  options.salvage = true;
  ASSERT_TRUE(LoadSvsStore(path, &salvage, options, &report).ok());
  EXPECT_TRUE(report.salvaged);
  EXPECT_EQ(report.records_expected, original.size());
  EXPECT_LT(report.records_loaded, original.size());
  EXPECT_GT(report.records_loaded, 0u);
  EXPECT_EQ(salvage.size(), report.records_loaded);
  // Whatever survived is bit-identical to the original prefix.
  ExpectStoresEqual(original, salvage, static_cast<size_t>(report.records_loaded));
  std::remove(path.c_str());
}

TEST(SvsSnapshotTest, FailedLoadLeavesExistingStoreUntouched) {
  const std::string good_path = TempPath("good.vzss");
  const std::string bad_path = TempPath("bad.vzss");
  core::SvsStore original;
  FillStore(&original);
  ASSERT_TRUE(SaveSvsStore(original, good_path).ok());
  ASSERT_TRUE(SaveSvsStore(original, bad_path).ok());
  ASSERT_TRUE(sim::FaultInjector::FlipBits(bad_path, 3, /*seed=*/7).ok());

  core::SvsStore store;
  ASSERT_TRUE(LoadSvsStore(good_path, &store).ok());
  const size_t before = store.size();
  EXPECT_FALSE(LoadSvsStore(bad_path, &store).ok());
  EXPECT_EQ(store.size(), before);
  ExpectStoresEqual(original, store, before);
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

TEST(SvsSnapshotTest, AtomicSaveFailureLeavesPreviousSnapshot) {
  const std::string path = TempPath("atomic.vzss");
  core::SvsStore original;
  FillStore(&original);
  ASSERT_TRUE(SaveSvsStore(original, path).ok());
  // A save to an unwritable location must fail without leaving debris.
  core::SvsStore other;
  FillStore(&other);
  EXPECT_FALSE(
      SaveSvsStore(other, "/nonexistent-vz-dir/snap.vzss").ok());
  // The original file still loads cleanly.
  core::SvsStore loaded;
  ASSERT_TRUE(LoadSvsStore(path, &loaded).ok());
  EXPECT_EQ(loaded.size(), original.size());
  std::remove(path.c_str());
}

TEST(SvsSnapshotTest, EmptyStoreRoundTrips) {
  const std::string path = TempPath("empty.vzss");
  core::SvsStore empty;
  ASSERT_TRUE(SaveSvsStore(empty, path).ok());
  core::SvsStore loaded;
  ASSERT_TRUE(LoadSvsStore(path, &loaded).ok());
  EXPECT_EQ(loaded.size(), 0u);
  std::remove(path.c_str());
}

// The v2 file layout, pinned byte for byte: two SVSs with hand-picked
// fields, saved, compared with the golden fixture, then the fixture itself
// loaded and saved again.
TEST(SvsSnapshotTest, GoldenVersion2FileIsPinned) {
  core::SvsStore store;
  FeatureMap first;
  const float a[] = {0.5f, 1.5f};
  const float b[] = {-1.0f, 2.0f};
  ASSERT_TRUE(first.Add(a, 2, 0.75).ok());
  ASSERT_TRUE(first.Add(b, 2, 0.25).ok());
  const core::SvsId id = store.Create("cam-a", 1'000, 9'000, first);
  auto svs = store.GetMutable(id);
  ASSERT_TRUE(svs.ok());
  core::WeightedCenter center;
  center.center = FeatureVector({0.5f, 1.5f});
  center.weight = 1.0;
  center.boundary = 1.25;
  center.mean_member_distance = 0.5;
  center.last_hit_ms = 4'000;
  (*svs)->set_representative(core::Representative({center}));
  (*svs)->set_frame_ids({7, 8, 9});
  (*svs)->set_encoded_bytes(65'536);
  (*svs)->RestoreAccessStats(5, 8'500);
  FeatureMap second;
  ASSERT_TRUE(second.Add(b, 2, 1.0).ok());
  store.Create("cam-b", 2'000, 3'000, second);

  const std::string path = TempPath("golden.vzss");
  ASSERT_TRUE(SaveSvsStore(store, path).ok());
  auto saved = BinaryReader::FromFile(path);
  ASSERT_TRUE(saved.ok());
  const std::string golden = ::vz::testing::GoldenHex("snapshot.v2");
  EXPECT_EQ(::vz::testing::HexOf(saved->data()), golden)
      << "golden snapshot.v2 " << ::vz::testing::HexOf(saved->data());

  BinaryWriter fixture;
  fixture.WriteBytes(::vz::testing::BytesOfHex(golden));
  ASSERT_TRUE(fixture.Flush(path).ok());
  core::SvsStore loaded;
  ASSERT_TRUE(LoadSvsStore(path, &loaded).ok());
  ASSERT_EQ(loaded.size(), 2u);
  ASSERT_TRUE(SaveSvsStore(loaded, path).ok());
  auto resaved = BinaryReader::FromFile(path);
  ASSERT_TRUE(resaved.ok());
  EXPECT_EQ(::vz::testing::HexOf(resaved->data()), golden);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vz::io
