// WAL unit coverage: framing round trips, dense-LSN enforcement, segment
// rotation, group-commit durability, checkpoint compaction — plus the
// salvage fuzzer: under seeded torn-tail, partial-fsync (zeroed tail) and
// bit-flip faults, `Wal::Open` must recover exactly a prefix of the
// committed records and stay appendable. Every acked-but-then-damaged
// suffix is bounded data loss; a phantom, reordered or corrupted record
// surviving salvage would be corruption, which is why this suite exists.
#include "io/wal.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/svs.h"
#include "format_golden.h"
#include "io/svs_snapshot.h"
#include "sim/fault_env.h"
#include "sim/fault_injector.h"

namespace vz::io {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::remove(dir.c_str());
  return dir;
}

std::string SegmentName(uint64_t seq) {
  char name[64];
  std::snprintf(name, sizeof(name), "wal-%010" PRIu64 ".vzwal", seq);
  return name;
}

void RemoveDirRecursive(const std::string& dir) {
  for (uint64_t seq = 0; seq < 64; ++seq) {
    std::remove((dir + "/" + SegmentName(seq)).c_str());
  }
  ::rmdir(dir.c_str());
}

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

WalRecord MakeRecord(uint64_t i) {
  WalRecord record;
  record.session_id = 100 + (i % 3);
  record.sequence = i;
  record.op = static_cast<uint32_t>(4 + (i % 2));
  record.payload = "op-payload-" + std::string(i % 37, 'x') +
                   std::to_string(i);
  return record;
}

void ExpectRecordsEqual(const WalRecord& got, const WalRecord& want,
                        uint64_t lsn) {
  EXPECT_EQ(got.lsn, lsn);
  EXPECT_EQ(got.session_id, want.session_id);
  EXPECT_EQ(got.sequence, want.sequence);
  EXPECT_EQ(got.op, want.op);
  EXPECT_EQ(got.payload, want.payload);
}

TEST(WalTest, AppendAssignsDenseLsnsAndSurvivesReopen) {
  const std::string dir = TempDir("wal_roundtrip");
  WalOptions options;
  options.dir = dir;
  options.fsync_interval_ms = 0;
  std::vector<WalRecord> committed;
  {
    auto wal = Wal::Open(options);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (uint64_t i = 1; i <= 20; ++i) {
      WalRecord record = MakeRecord(i);
      auto lsn = (*wal)->Append(record);
      ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
      EXPECT_EQ(*lsn, i);
      committed.push_back(record);
    }
    ASSERT_TRUE((*wal)->WaitDurable(20).ok());
    EXPECT_GE((*wal)->durable_lsn(), 20u);
    EXPECT_EQ((*wal)->stats().appends, 20u);
    EXPECT_GT((*wal)->stats().fsyncs, 0u);
  }
  // Reopen: the chain continues where it left off.
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ((*wal)->last_lsn(), 20u);
  EXPECT_EQ((*wal)->stats().salvaged_bytes, 0u);
  auto records = (*wal)->ReadFrom(0, 100);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 20u);
  for (size_t i = 0; i < records->size(); ++i) {
    ExpectRecordsEqual((*records)[i], committed[i], i + 1);
  }
  // Windowed read, as the shipping RPC uses it.
  auto window = (*wal)->ReadFrom(5, 3);
  ASSERT_TRUE(window.ok());
  ASSERT_EQ(window->size(), 3u);
  EXPECT_EQ((*window)[0].lsn, 6u);
  EXPECT_EQ((*window)[2].lsn, 8u);
  auto next = (*wal)->Append(MakeRecord(21));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 21u);
  RemoveDirRecursive(dir);
}

TEST(WalTest, ExplicitLsnMustContinueTheChain) {
  const std::string dir = TempDir("wal_chain");
  WalOptions options;
  options.dir = dir;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());
  WalRecord record = MakeRecord(1);
  record.lsn = 1;  // standby path: mirror the primary's numbering
  ASSERT_TRUE((*wal)->Append(record).ok());
  record.lsn = 5;  // a gap would silently lose 2..4 on replay
  auto gap = (*wal)->Append(record);
  EXPECT_FALSE(gap.ok());
  EXPECT_EQ(gap.status().code(), StatusCode::kInvalidArgument);
  record.lsn = 2;
  EXPECT_TRUE((*wal)->Append(record).ok());
  RemoveDirRecursive(dir);
}

TEST(WalTest, StartLsnFloorSeedsNumberingAfterCompaction) {
  const std::string dir = TempDir("wal_floor");
  WalOptions options;
  options.dir = dir;
  options.start_lsn = 41;  // a checkpoint already covers 1..41
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->last_lsn(), 41u);
  EXPECT_EQ((*wal)->base_lsn(), 41u);
  auto lsn = (*wal)->Append(MakeRecord(42));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 42u);
  RemoveDirRecursive(dir);
}

TEST(WalTest, RotationSpansSegmentsTransparently) {
  const std::string dir = TempDir("wal_rotate");
  WalOptions options;
  options.dir = dir;
  options.segment_bytes = 256;  // force frequent rotation
  std::vector<WalRecord> committed;
  {
    auto wal = Wal::Open(options);
    ASSERT_TRUE(wal.ok());
    for (uint64_t i = 1; i <= 40; ++i) {
      WalRecord record = MakeRecord(i);
      ASSERT_TRUE((*wal)->Append(record).ok());
      committed.push_back(record);
    }
    EXPECT_GT((*wal)->stats().segments_created, 3u);
  }
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->last_lsn(), 40u);
  auto records = (*wal)->ReadFrom(0, 100);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 40u);
  for (size_t i = 0; i < records->size(); ++i) {
    ExpectRecordsEqual((*records)[i], committed[i], i + 1);
  }
  // Replay sees the same stream as ReadFrom.
  uint64_t replayed = 0;
  ASSERT_TRUE((*wal)
                  ->Replay(10,
                           [&](const WalRecord& record) {
                             EXPECT_EQ(record.lsn, 11 + replayed);
                             ++replayed;
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(replayed, 30u);
  RemoveDirRecursive(dir);
}

TEST(WalTest, CompactionDeletesCoveredSegmentsAndAdvancesBase) {
  const std::string dir = TempDir("wal_compact");
  WalOptions options;
  options.dir = dir;
  options.segment_bytes = 256;
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok());
  for (uint64_t i = 1; i <= 30; ++i) {
    ASSERT_TRUE((*wal)->Append(MakeRecord(i)).ok());
  }
  const uint64_t bytes_before = (*wal)->live_bytes();
  ASSERT_TRUE((*wal)->Compact(30).ok());
  EXPECT_EQ((*wal)->base_lsn(), 30u);
  EXPECT_LT((*wal)->live_bytes(), bytes_before);
  EXPECT_GT((*wal)->stats().segments_deleted, 0u);
  // Compacted records are durable by definition (the checkpoint owns them).
  EXPECT_GE((*wal)->durable_lsn(), 30u);
  // Shipping from below the base must refuse, not return a gap.
  auto gone = (*wal)->ReadFrom(10, 100);
  EXPECT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kOutOfRange);
  // The log keeps going, and a reopen continues from the compacted chain.
  ASSERT_TRUE((*wal)->Append(MakeRecord(31)).ok());
  wal->reset();
  options.start_lsn = 30;
  auto reopened = Wal::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->last_lsn(), 31u);
  auto tail = (*reopened)->ReadFrom(30, 10);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_EQ((*tail)[0].lsn, 31u);
  RemoveDirRecursive(dir);
}

TEST(WalTest, CheckpointMetaRoundTripAndCorruptionDetection) {
  const std::string dir = TempDir("wal_ckpt");
  ::mkdir(dir.c_str(), 0777);  // tolerate leftovers from a failed prior run
  WalCheckpoint checkpoint;
  checkpoint.lsn = 77;
  checkpoint.now_ms = 123456;
  checkpoint.ingest.frames_offered = 10;
  checkpoint.ingest.duplicates_dropped = 2;
  checkpoint.ingest.raw_feature_bytes = 4096;
  WalCheckpoint::Camera camera;
  camera.camera = "cam-a";
  camera.stats.frames_offered = 7;
  camera.stats.frames_accepted = 6;
  camera.stats.last_frame_ms = 900;
  camera.last_frame_id = 41;
  camera.expected_dim = 32;
  checkpoint.cameras.push_back(camera);
  WalCheckpoint::Session session;
  session.session_id = 4242;
  session.evicted_up_to = 3;
  session.responses.emplace_back(4, std::string("resp-4"));
  session.responses.emplace_back(5, std::string("resp-5"));
  checkpoint.sessions.push_back(session);
  // v3: operator tuning rides the manifest.
  checkpoint.has_tuning = true;
  checkpoint.tuning.index_mode = 2;
  checkpoint.tuning.boundary_scale = 1.5;
  checkpoint.tuning.omd_alpha = 0.25;
  checkpoint.tuning.keyframe_selection = false;
  checkpoint.tuning.inter_group_count = 6;
  checkpoint.tuning.intra_cluster_count = 0;  // auto

  const std::string path = WalCheckpointMetaPath(dir, checkpoint.lsn);
  ASSERT_TRUE(SaveWalCheckpointMeta(checkpoint, path).ok());
  auto loaded = LoadWalCheckpointMeta(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->lsn, 77u);
  EXPECT_EQ(loaded->now_ms, 123456);
  EXPECT_EQ(loaded->ingest.frames_offered, 10u);
  EXPECT_EQ(loaded->ingest.duplicates_dropped, 2u);
  EXPECT_EQ(loaded->ingest.raw_feature_bytes, 4096u);
  ASSERT_EQ(loaded->cameras.size(), 1u);
  EXPECT_EQ(loaded->cameras[0].camera, "cam-a");
  EXPECT_EQ(loaded->cameras[0].stats.frames_accepted, 6u);
  EXPECT_EQ(loaded->cameras[0].last_frame_id, 41);
  EXPECT_EQ(loaded->cameras[0].expected_dim, 32u);
  ASSERT_EQ(loaded->sessions.size(), 1u);
  EXPECT_EQ(loaded->sessions[0].session_id, 4242u);
  EXPECT_EQ(loaded->sessions[0].evicted_up_to, 3u);
  ASSERT_EQ(loaded->sessions[0].responses.size(), 2u);
  EXPECT_EQ(loaded->sessions[0].responses[1].second, "resp-5");
  ASSERT_TRUE(loaded->has_tuning);
  EXPECT_EQ(loaded->tuning.index_mode, 2u);
  EXPECT_DOUBLE_EQ(loaded->tuning.boundary_scale, 1.5);
  EXPECT_DOUBLE_EQ(loaded->tuning.omd_alpha, 0.25);
  EXPECT_FALSE(loaded->tuning.keyframe_selection);
  EXPECT_EQ(loaded->tuning.inter_group_count, 6u);
  EXPECT_EQ(loaded->tuning.intra_cluster_count, 0u);

  auto lsns = ListWalCheckpointLsns(dir);
  ASSERT_TRUE(lsns.ok());
  ASSERT_EQ(lsns->size(), 1u);
  EXPECT_EQ((*lsns)[0], 77u);

  // A flipped bit anywhere must fail the manifest CRC.
  ASSERT_TRUE(sim::FaultInjector::FlipBits(path, 1, 99).ok());
  auto corrupt = LoadWalCheckpointMeta(path);
  EXPECT_FALSE(corrupt.ok());

  RemoveWalCheckpointsBelow(dir, 100);
  auto removed = ListWalCheckpointLsns(dir);
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(removed->empty());
  ::rmdir(dir.c_str());
}

// The v3 manifest layout, pinned byte for byte; the fixture itself loads
// and saves back to the same bytes.
TEST(WalTest, GoldenManifestVersion3IsPinned) {
  const std::string dir = TempDir("wal_golden_meta");
  ::mkdir(dir.c_str(), 0777);
  WalCheckpoint checkpoint;
  checkpoint.lsn = 77;
  checkpoint.epoch = 2;
  checkpoint.now_ms = 123'456;
  checkpoint.ingest = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  WalCheckpoint::Camera camera;
  camera.camera = "cam-a";
  camera.stats = {10, 11, 12, 13, 14, 15, 16};
  camera.last_frame_id = 41;
  camera.expected_dim = 32;
  checkpoint.cameras.push_back(camera);
  WalCheckpoint::Session session;
  session.session_id = 4'242;
  session.evicted_up_to = 3;
  session.responses.emplace_back(4, std::string("resp-4"));
  session.responses.emplace_back(5, std::string("resp-5"));
  checkpoint.sessions.push_back(session);
  checkpoint.has_tuning = true;
  checkpoint.tuning.index_mode = 2;
  checkpoint.tuning.boundary_scale = 1.5;
  checkpoint.tuning.omd_alpha = 0.25;
  checkpoint.tuning.keyframe_selection = false;
  checkpoint.tuning.inter_group_count = 6;
  checkpoint.tuning.intra_cluster_count = 0;

  const std::string path = WalCheckpointMetaPath(dir, checkpoint.lsn);
  ASSERT_TRUE(SaveWalCheckpointMeta(checkpoint, path).ok());
  auto saved = ReadFileBytes(path);
  ASSERT_TRUE(saved.ok());
  const std::string golden = ::vz::testing::GoldenHex("manifest.v3");
  EXPECT_EQ(::vz::testing::HexOf(*saved), golden)
      << "golden manifest.v3 " << ::vz::testing::HexOf(*saved);

  WriteFileBytes(path, ::vz::testing::BytesOfHex(golden));
  auto loaded = LoadWalCheckpointMeta(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(SaveWalCheckpointMeta(*loaded, path).ok());
  auto resaved = ReadFileBytes(path);
  ASSERT_TRUE(resaved.ok());
  EXPECT_EQ(::vz::testing::HexOf(*resaved), golden);
  std::remove(path.c_str());
  ::rmdir(dir.c_str());
}

// The v2 segment layout, pinned byte for byte: the header plus one record;
// the fixture itself opens as a log holding exactly that record.
TEST(WalTest, GoldenSegmentHeaderAndRecordArePinned) {
  const std::string dir = TempDir("wal_golden_segment");
  RemoveDirRecursive(dir);
  WalRecord record;
  record.session_id = 9;
  record.sequence = 2;
  record.op = 4;
  record.epoch = 1;
  record.payload = "frame-bytes";
  {
    WalOptions options;
    options.dir = dir;
    auto wal = Wal::Open(options);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    auto lsn = (*wal)->Append(record);
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, 1u);
  }
  const std::string path = dir + "/" + SegmentName(1);
  auto saved = ReadFileBytes(path);
  ASSERT_TRUE(saved.ok());
  const std::string golden = ::vz::testing::GoldenHex("wal.segment");
  EXPECT_EQ(::vz::testing::HexOf(*saved), golden)
      << "golden wal.segment " << ::vz::testing::HexOf(*saved);
  RemoveDirRecursive(dir);

  ::mkdir(dir.c_str(), 0777);
  WriteFileBytes(path, ::vz::testing::BytesOfHex(golden));
  {
    WalOptions options;
    options.dir = dir;
    auto wal = Wal::Open(options);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    auto records = (*wal)->ReadFrom(0, 10);
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records->size(), 1u);
    ExpectRecordsEqual((*records)[0], record, 1);
    EXPECT_EQ((*records)[0].epoch, 1u);
  }
  RemoveDirRecursive(dir);
}

// Crash-between-renames drill: compaction publishes a checkpoint as two
// renames — `.vzss` first, `.meta` second. The machine dies between them,
// leaving a snapshot with no manifest. Recovery must treat the pair as torn,
// fall back to the previous valid checkpoint, and replay the WAL tail past
// it — the torn `.vzss` is dead weight, never authority.
TEST(WalTest, CrashBetweenCheckpointRenamesFallsBackToPreviousPair) {
  const std::string dir = TempDir("wal_torn_ckpt");
  WalOptions options;
  options.dir = dir;
  options.fsync_interval_ms = 0;
  {
    auto wal = Wal::Open(options);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (uint64_t i = 1; i <= 12; ++i) {
      ASSERT_TRUE((*wal)->Append(MakeRecord(i)).ok());
    }
    ASSERT_TRUE((*wal)->WaitDurable(12).ok());

    // A valid pair at lsn 8, then compact the covered segments away.
    core::SvsStore store;
    ASSERT_TRUE(
        SaveSvsStore(store, WalCheckpointSnapshotPath(dir, 8)).ok());
    WalCheckpoint cut;
    cut.lsn = 8;
    ASSERT_TRUE(
        SaveWalCheckpointMeta(cut, WalCheckpointMetaPath(dir, 8)).ok());
    ASSERT_TRUE((*wal)->Compact(8).ok());
    for (uint64_t i = 13; i <= 16; ++i) {
      ASSERT_TRUE((*wal)->Append(MakeRecord(i)).ok());
    }
    ASSERT_TRUE((*wal)->WaitDurable(16).ok());
  }

  // Second checkpoint attempt at lsn 16 on a disk that dies between the two
  // renames: the snapshot publishes, the manifest never does.
  sim::FaultEnvOptions fault_options;
  fault_options.crash_after_renames = 1;
  sim::FaultEnv fault(fault_options);
  core::SvsStore snapshot;
  ASSERT_TRUE(
      SaveSvsStore(snapshot, WalCheckpointSnapshotPath(dir, 16), &fault)
          .ok());
  EXPECT_EQ(fault.stats().renames, 1u);
  WalCheckpoint torn_cut;
  torn_cut.lsn = 16;
  const Status torn =
      SaveWalCheckpointMeta(torn_cut, WalCheckpointMetaPath(dir, 16), &fault);
  ASSERT_FALSE(torn.ok());
  EXPECT_TRUE(fault.stats().dead);

  // Only lsn 8 is discoverable: the torn pair has no manifest.
  auto lsns = ListWalCheckpointLsns(dir);
  ASSERT_TRUE(lsns.ok()) << lsns.status().ToString();
  ASSERT_EQ(lsns->size(), 1u);
  EXPECT_EQ((*lsns)[0], 8u);
  EXPECT_FALSE(LoadWalCheckpointMeta(WalCheckpointMetaPath(dir, 16)).ok());
  auto previous = LoadWalCheckpointMeta(WalCheckpointMetaPath(dir, 8));
  ASSERT_TRUE(previous.ok()) << previous.status().ToString();
  EXPECT_EQ(previous->lsn, 8u);

  // Reopening from the previous cut replays the full surviving tail: the
  // records past lsn 8 were never compacted, so nothing is lost.
  options.start_lsn = 8;
  auto reopened = Wal::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->last_lsn(), 16u);
  auto tail = (*reopened)->ReadFrom(8, 100);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  ASSERT_EQ(tail->size(), 8u);
  for (size_t i = 0; i < tail->size(); ++i) {
    ExpectRecordsEqual((*tail)[i], MakeRecord(9 + i), 9 + i);
  }

  std::remove(WalCheckpointSnapshotPath(dir, 8).c_str());
  std::remove(WalCheckpointMetaPath(dir, 8).c_str());
  std::remove(WalCheckpointSnapshotPath(dir, 16).c_str());
  RemoveDirRecursive(dir);
}

TEST(WalTest, TornHeaderDropsTheSegmentButStaysAppendable) {
  const std::string dir = TempDir("wal_torn_header");
  WalOptions options;
  options.dir = dir;
  {
    auto wal = Wal::Open(options);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(MakeRecord(1)).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  const std::string segment = dir + "/" + SegmentName(1);
  ASSERT_TRUE(sim::FaultInjector::TruncateFile(segment, 7).ok());
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ((*wal)->last_lsn(), 0u);
  EXPECT_GT((*wal)->stats().salvaged_bytes, 0u);
  auto lsn = (*wal)->Append(MakeRecord(1));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 1u);
  RemoveDirRecursive(dir);
}

TEST(WalTest, MidChainDamageStrandsLaterSegments) {
  const std::string dir = TempDir("wal_stranded");
  WalOptions options;
  options.dir = dir;
  options.segment_bytes = 256;
  size_t segments = 0;
  {
    auto wal = Wal::Open(options);
    ASSERT_TRUE(wal.ok());
    for (uint64_t i = 1; i <= 30; ++i) {
      ASSERT_TRUE((*wal)->Append(MakeRecord(i)).ok());
    }
    segments = (*wal)->stats().segments_created;
    ASSERT_GE(segments, 3u);
  }
  // Tear the tail of a MIDDLE segment: its suffix and every later segment
  // are stranded — recovery must keep the strict prefix, never bridge the
  // hole.
  const std::string middle = dir + "/" + SegmentName(2);
  auto bytes = ReadFileBytes(middle);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(sim::FaultInjector::TruncateTail(middle, 5).ok());
  auto wal = Wal::Open(options);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  const uint64_t recovered = (*wal)->last_lsn();
  EXPECT_GT((*wal)->stats().salvaged_bytes, 0u);
  EXPECT_LT(recovered, 30u);
  auto records = (*wal)->ReadFrom(0, 100);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), recovered);
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ((*records)[i].lsn, i + 1);
  }
  // Later segment files are gone, not lurking with unreachable records.
  for (uint64_t seq = 3; seq <= segments; ++seq) {
    EXPECT_FALSE(ReadFileBytes(dir + "/" + SegmentName(seq)).ok())
        << "segment " << seq << " should have been dropped";
  }
  RemoveDirRecursive(dir);
}

// --- The salvage fuzzer (satellite: every prefix of committed records must
// --- be recoverable under torn-tail, partial-fsync and bit-flip faults).

struct CommittedLog {
  std::vector<WalRecord> records;
  /// Absolute end offset of each record in the (single) segment file.
  std::vector<size_t> end_offsets;
  std::string pristine_bytes;
  std::string segment_path;
};

CommittedLog BuildPristineLog(const std::string& dir, size_t count) {
  CommittedLog log;
  WalOptions options;
  options.dir = dir;
  options.fsync_interval_ms = 0;
  auto wal = Wal::Open(options);
  EXPECT_TRUE(wal.ok());
  const size_t header_bytes = 20;  // magic, version, start lsn, header crc
  for (uint64_t i = 1; i <= count; ++i) {
    WalRecord record = MakeRecord(i);
    // Vary sizes so faults land at every kind of intra-record offset.
    record.payload.append(i % 5 * 17, 'y');
    EXPECT_TRUE((*wal)->Append(record).ok());
    log.records.push_back(record);
    log.end_offsets.push_back(header_bytes +
                              (*wal)->stats().appended_bytes);
  }
  EXPECT_TRUE((*wal)->Sync().ok());
  wal->reset();
  log.segment_path = dir + "/" + SegmentName(1);
  auto bytes = ReadFileBytes(log.segment_path);
  EXPECT_TRUE(bytes.ok());
  log.pristine_bytes = *bytes;
  return log;
}

TEST(WalSalvageFuzzTest, EveryPrefixOfCommittedRecordsIsRecovered) {
  const std::string dir = TempDir("wal_fuzz");
  const CommittedLog log = BuildPristineLog(dir, 24);
  ASSERT_EQ(log.end_offsets.back(), log.pristine_bytes.size());

  WalOptions options;
  options.dir = dir;
  options.fsync_interval_ms = 0;

  const int seeds = 60;
  int torn = 0, zeroed = 0, flipped = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    WriteFileBytes(log.segment_path, log.pristine_bytes);
    Rng rng(static_cast<uint64_t>(seed) * 7919 + 1);
    const size_t file_bytes = log.pristine_bytes.size();
    // Damage reaches anywhere from 1 byte into the tail to the whole file.
    const size_t damage =
        1 + static_cast<size_t>(rng.UniformUint64(file_bytes));
    size_t expected = log.records.size();  // prefix length (exact for
                                           // tail-shape faults)
    size_t post_fault_bytes = file_bytes;  // file length after the fault
    size_t kept_prefix = file_bytes;       // undamaged prefix length
    bool exact = true;
    switch (seed % 3) {
      case 0: {  // torn tail: crash mid-append
        ASSERT_TRUE(
            sim::FaultInjector::TruncateTail(log.segment_path, damage).ok());
        ++torn;
        const size_t kept = file_bytes - damage;
        post_fault_bytes = kept;
        kept_prefix = kept;
        expected = 0;
        for (size_t i = 0; i < log.end_offsets.size(); ++i) {
          if (log.end_offsets[i] <= kept) expected = i + 1;
        }
        break;
      }
      case 1: {  // partial fsync: full length, zeroed suffix
        ASSERT_TRUE(
            sim::FaultInjector::ShortWriteTail(log.segment_path, damage)
                .ok());
        ++zeroed;
        const size_t kept = file_bytes - damage;
        kept_prefix = kept;
        expected = 0;
        for (size_t i = 0; i < log.end_offsets.size(); ++i) {
          if (log.end_offsets[i] <= kept) expected = i + 1;
        }
        break;
      }
      default: {  // media corruption at arbitrary offsets
        ASSERT_TRUE(sim::FaultInjector::FlipBits(
                        log.segment_path, 1 + seed % 4,
                        static_cast<uint64_t>(seed) * 31 + 5)
                        .ok());
        ++flipped;
        exact = false;  // the flip offsets are the injector's business; the
                        // prefix property below still must hold
        break;
      }
    }

    auto wal = Wal::Open(options);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    auto recovered = (*wal)->ReadFrom(0, log.records.size() + 1);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    if (exact) {
      ASSERT_EQ(recovered->size(), expected);
      // Salvage accounting is exact: every byte past the last valid record
      // is counted as discarded. (Zero when the tear landed precisely on a
      // record boundary — then the fault itself, not salvage, ate the tail.)
      // Damage that reaches into the 20-byte segment header drops the whole
      // file.
      const size_t header_extent = 20;
      size_t expected_salvaged;
      if (kept_prefix < header_extent) {
        expected_salvaged = post_fault_bytes;
      } else {
        const size_t boundary =
            expected > 0 ? log.end_offsets[expected - 1] : header_extent;
        expected_salvaged = post_fault_bytes - boundary;
      }
      EXPECT_EQ((*wal)->stats().salvaged_bytes, expected_salvaged);
    } else {
      ASSERT_LE(recovered->size(), log.records.size());
    }
    // The strict prefix property: record i of the salvage IS record i of
    // the commit order, byte for byte. No phantom, reordered, or mutated
    // record may survive.
    for (size_t i = 0; i < recovered->size(); ++i) {
      ExpectRecordsEqual((*recovered)[i], log.records[i], i + 1);
    }
    // Salvage leaves an appendable log: the next record continues the
    // chain right after the recovered prefix and survives a reopen.
    WalRecord next = MakeRecord(900 + static_cast<uint64_t>(seed));
    auto lsn = (*wal)->Append(next);
    ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
    EXPECT_EQ(*lsn, recovered->size() + 1);
    ASSERT_TRUE((*wal)->Sync().ok());
    wal->reset();
    auto reopened = Wal::Open(options);
    ASSERT_TRUE(reopened.ok());
    auto all = (*reopened)->ReadFrom(0, log.records.size() + 2);
    ASSERT_TRUE(all.ok());
    ASSERT_EQ(all->size(), recovered->size() + 1);
    ExpectRecordsEqual(all->back(), next, recovered->size() + 1);
    reopened->reset();
    // Reset the directory for the next seed (the fuzzed segment is
    // rewritten from the pristine image at the top of the loop; stray
    // rotations cannot happen at these sizes).
  }
  EXPECT_GT(torn, 0);
  EXPECT_GT(zeroed, 0);
  EXPECT_GT(flipped, 0);
  RemoveDirRecursive(dir);
}

}  // namespace
}  // namespace vz::io
