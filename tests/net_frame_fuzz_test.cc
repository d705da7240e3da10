// Fuzzes the wire-frame decoder with the deterministic fault injector:
// truncated frames at every prefix length, seeded bit flips, and
// valid-CRC-but-garbage payloads against every payload codec. The contract
// under test is the decode failure taxonomy in net/wire.h — corruption
// yields kDataLoss, well-formed-but-alien bytes yield kInvalidArgument, and
// nothing ever crashes, hangs, or allocates from a hostile length field.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/binary_format.h"
#include "net/wire.h"
#include "sim/fault_injector.h"

namespace vz::net {
namespace {

using sim::FaultInjector;

bool IsFuzzStatus(const Status& status) {
  return status.code() == StatusCode::kDataLoss ||
         status.code() == StatusCode::kInvalidArgument;
}

// A representative request frame with a structured payload.
std::string SampleFrame() {
  io::BinaryWriter payload;
  EncodeFeatureVector(&payload, FeatureVector({1.5f, -2.0f, 3.25f, 0.0f}));
  core::QueryConstraints constraints;
  constraints.deadline_ms = 250;
  constraints.cameras = std::vector<core::CameraId>{"cam-a", "cam-b"};
  EncodeQueryConstraints(&payload, constraints);
  return EncodeFrame(static_cast<uint32_t>(MsgType::kDirectQuery), 3,
                     payload.buffer());
}

// Heavier corruption: flip bursts plus truncation combined. Here a CRC
// collision is theoretically possible but astronomically unlikely; the
// invariant asserted is only "returns a status, never crashes or hangs".
TEST(FrameFuzzTest, HeavyCorruptionNeverCrashes) {
  const std::string bytes = SampleFrame();
  Rng rng(99);
  for (uint64_t seed = 0; seed < 500; ++seed) {
    std::string corrupt = bytes;
    ASSERT_TRUE(
        FaultInjector::FlipBits(&corrupt, 1 + seed % 64, seed).ok());
    if (rng.Bernoulli(0.5)) {
      const size_t keep = rng.UniformUint64(corrupt.size() + 1);
      ASSERT_TRUE(FaultInjector::Truncate(&corrupt, keep).ok());
    }
    io::BinaryReader reader(corrupt);
    auto frame = DecodeFrame(&reader);
    if (!frame.ok()) {
      EXPECT_TRUE(IsFuzzStatus(frame.status()));
    }
  }
}

TEST(FrameFuzzTest, BadMagicAndUnknownTypeAreInvalidArgument) {
  {
    std::string bytes = SampleFrame();
    bytes[0] ^= 0xFF;  // magic is the first little-endian u32
    io::BinaryReader reader(bytes);
    EXPECT_EQ(DecodeFrame(&reader).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    // Unknown-but-whole frame: correctly framed, CRC valid, alien type.
    const std::string bytes = EncodeFrame(4242, 1, "payload");
    io::BinaryReader reader(bytes);
    EXPECT_EQ(DecodeFrame(&reader).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// Frames whose framing is valid (good CRC) but whose payload is random
// garbage: every payload codec must return a status, not crash — the
// overflow-safe reader makes giant counts fail before allocation.
TEST(FrameFuzzTest, RandomPayloadsAgainstEveryCodec) {
  Rng rng(2026);
  for (int round = 0; round < 200; ++round) {
    const size_t size = rng.UniformUint64(96);
    std::string payload(size, '\0');
    for (char& c : payload) {
      c = static_cast<char>(rng.UniformUint64(256));
    }
    auto with_reader = [&payload](auto&& decode) {
      io::BinaryReader reader(payload);
      auto result = decode(&reader);
      (void)result;  // only invariant: returns, no crash/hang
    };
    with_reader([](io::BinaryReader* r) { return DecodeWireStatus(r); });
    with_reader([](io::BinaryReader* r) { return DecodeFeatureVector(r); });
    with_reader([](io::BinaryReader* r) { return DecodeFeatureMap(r); });
    with_reader(
        [](io::BinaryReader* r) { return DecodeFrameObservation(r); });
    with_reader(
        [](io::BinaryReader* r) { return DecodeQueryConstraints(r); });
    with_reader(
        [](io::BinaryReader* r) { return DecodeDirectQueryResult(r); });
    with_reader(
        [](io::BinaryReader* r) { return DecodeClusteringQueryResult(r); });
    with_reader([](io::BinaryReader* r) { return DecodeSvsMetadata(r); });
    with_reader([](io::BinaryReader* r) { return DecodeQueryLoadStats(r); });
    with_reader([](io::BinaryReader* r) { return DecodeMonitorStats(r); });
    with_reader(
        [](io::BinaryReader* r) { return DecodeCameraHealthReport(r); });
    with_reader(
        [](io::BinaryReader* r) { return DecodeIdempotencyToken(r); });
    // v5 payload codecs.
    with_reader(
        [](io::BinaryReader* r) { return DecodeSubscribeRequest(r); });
    with_reader([](io::BinaryReader* r) { return DecodePushEvent(r); });
    with_reader(
        [](io::BinaryReader* r) { return DecodeIngestBatchReply(r); });
    with_reader(
        [](io::BinaryReader* r) { return DecodeAdminTuneRequest(r); });
    with_reader(
        [](io::BinaryReader* r) { return DecodeAdminTuneReply(r); });
  }
}

// --- Protocol-v2 wire fields: tokens, ping, supervision stats. ---

TEST(FrameFuzzTest, IdempotencyTokenRoundTripsAndRejectsReservedSession) {
  io::BinaryWriter writer;
  EncodeIdempotencyToken(&writer, {0x1122334455667788ULL, 42});
  io::BinaryReader reader(writer.buffer());
  auto token = DecodeIdempotencyToken(&reader);
  ASSERT_TRUE(token.ok());
  EXPECT_EQ(token->session_id, 0x1122334455667788ULL);
  EXPECT_EQ(token->sequence, 42u);
  EXPECT_EQ(reader.remaining(), 0u);

  // Session id 0 is reserved as "no token": a frame carrying it is
  // well-formed but alien — kInvalidArgument, not kDataLoss.
  io::BinaryWriter reserved;
  EncodeIdempotencyToken(&reserved, {0, 7});
  io::BinaryReader reserved_reader(reserved.buffer());
  auto rejected = DecodeIdempotencyToken(&reserved_reader);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameFuzzTest, TruncatedTokenIsAlwaysAnError) {
  io::BinaryWriter writer;
  EncodeIdempotencyToken(&writer, {99, 3});
  const std::string bytes = writer.buffer();
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    std::string torn = bytes;
    ASSERT_TRUE(FaultInjector::Truncate(&torn, keep).ok());
    io::BinaryReader reader(torn);
    EXPECT_FALSE(DecodeIdempotencyToken(&reader).ok()) << keep;
  }
}

// kPing is a known frame type introduced in v2: an empty-payload ping frame
// must pass the framing layer's known-type check, and a mutating frame's
// token prefix survives the same truncation/flip treatment as everything
// else.
TEST(FrameFuzzTest, PingAndTokenedFramesSurviveTheFuzzSweep) {
  const std::string ping =
      EncodeFrame(static_cast<uint32_t>(MsgType::kPing), 1, "");
  {
    io::BinaryReader reader(ping);
    auto frame = DecodeFrame(&reader);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, static_cast<uint32_t>(MsgType::kPing));
    EXPECT_TRUE(frame->payload.empty());
  }
  // A tokened mutating frame, as the client builds it: token then body.
  ASSERT_TRUE(IsMutatingType(static_cast<uint32_t>(MsgType::kFlush)));
  ASSERT_FALSE(IsMutatingType(static_cast<uint32_t>(MsgType::kDirectQuery)));
  ASSERT_FALSE(IsMutatingType(static_cast<uint32_t>(MsgType::kPing)));
  io::BinaryWriter tokened;
  EncodeIdempotencyToken(&tokened, {77, 8});
  const std::string frame_bytes =
      EncodeFrame(static_cast<uint32_t>(MsgType::kFlush), 2, tokened.buffer());
  for (size_t keep = 0; keep < frame_bytes.size(); ++keep) {
    std::string torn = frame_bytes;
    ASSERT_TRUE(FaultInjector::Truncate(&torn, keep).ok());
    io::BinaryReader reader(torn);
    EXPECT_EQ(DecodeFrame(&reader).status().code(), StatusCode::kDataLoss)
        << keep;
  }
  for (uint64_t seed = 0; seed < 100; ++seed) {
    std::string corrupt = frame_bytes;
    ASSERT_TRUE(FaultInjector::FlipBits(&corrupt, 2, seed).ok());
    io::BinaryReader reader(corrupt);
    auto frame = DecodeFrame(&reader);
    ASSERT_FALSE(frame.ok()) << "seed " << seed;
    EXPECT_TRUE(IsFuzzStatus(frame.status()));
  }
}

// The v2 MonitorStats payload (serving counters + connection registry)
// round-trips exactly and fails cleanly under truncation.
TEST(FrameFuzzTest, MonitorStatsV2RoundTripsAndFailsCleanlyWhenTorn) {
  MonitorStatsReply stats;
  stats.ingest.frames_offered = 123;
  stats.svs_count = 9;
  stats.camera_count = 4;
  stats.now_ms = 77'000;
  stats.serving.connections_accepted = 6;
  stats.serving.connections_shed = 1;
  stats.serving.connections_evicted_idle = 2;
  stats.serving.connections_evicted_slow = 3;
  stats.serving.duplicates_replayed = 4;
  stats.serving.pings_served = 5;
  stats.serving.sessions_active = 2;
  stats.serving.sessions_evicted = 1;
  stats.serving.connections.push_back({11, 5'000, 40, 1'024, 2'048, 17});
  stats.serving.connections.push_back({12, 100, 0, 64, 96, 1});
  stats.serving.subscriptions_active = 3;
  stats.serving.subscriptions_total = 7;
  stats.serving.pushes_sent = 99;
  stats.serving.push_drops = 4;
  stats.serving.push_gaps_sent = 2;
  stats.serving.ingest_batches = 13;
  stats.serving.disk_io_errors = 21;
  stats.serving.disk_fsync_failures = 22;
  stats.serving.checkpoints_quarantined = 23;
  stats.serving.disk_full = true;
  stats.serving.read_only = true;
  io::BinaryWriter writer;
  EncodeMonitorStats(&writer, stats);

  io::BinaryReader reader(writer.buffer());
  auto decoded = DecodeMonitorStats(&reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(decoded->ingest.frames_offered, 123u);
  EXPECT_EQ(decoded->serving.connections_evicted_idle, 2u);
  EXPECT_EQ(decoded->serving.connections_evicted_slow, 3u);
  EXPECT_EQ(decoded->serving.duplicates_replayed, 4u);
  EXPECT_EQ(decoded->serving.pings_served, 5u);
  EXPECT_EQ(decoded->serving.sessions_active, 2u);
  EXPECT_EQ(decoded->serving.sessions_evicted, 1u);
  ASSERT_EQ(decoded->serving.connections.size(), 2u);
  EXPECT_EQ(decoded->serving.connections[0].id, 11u);
  EXPECT_EQ(decoded->serving.connections[0].age_ms, 5'000);
  EXPECT_EQ(decoded->serving.connections[0].idle_ms, 40);
  EXPECT_EQ(decoded->serving.connections[0].bytes_in, 1'024u);
  EXPECT_EQ(decoded->serving.connections[0].bytes_out, 2'048u);
  EXPECT_EQ(decoded->serving.connections[0].rpcs, 17u);
  EXPECT_EQ(decoded->serving.connections[1].id, 12u);
  EXPECT_EQ(decoded->serving.subscriptions_active, 3u);
  EXPECT_EQ(decoded->serving.subscriptions_total, 7u);
  EXPECT_EQ(decoded->serving.pushes_sent, 99u);
  EXPECT_EQ(decoded->serving.push_drops, 4u);
  EXPECT_EQ(decoded->serving.push_gaps_sent, 2u);
  EXPECT_EQ(decoded->serving.ingest_batches, 13u);
  EXPECT_EQ(decoded->serving.disk_io_errors, 21u);
  EXPECT_EQ(decoded->serving.disk_fsync_failures, 22u);
  EXPECT_EQ(decoded->serving.checkpoints_quarantined, 23u);
  EXPECT_TRUE(decoded->serving.disk_full);
  EXPECT_TRUE(decoded->serving.read_only);

  // The v5 subscription counters and the disk-health block are each a
  // prefix-compatible tail: cutting the payload exactly at the v4 boundary
  // is a valid v4 payload (both tails decode as zero), cutting exactly at
  // the pre-disk-health boundary is a valid older-v5 payload (disk fields
  // decode as zero); every other truncation is an error.
  const std::string bytes = writer.buffer();
  const size_t disk_tail_bytes = 3 * sizeof(uint64_t) + 2;
  const size_t v5_tail_bytes = 6 * sizeof(uint64_t) + disk_tail_bytes;
  ASSERT_GT(bytes.size(), v5_tail_bytes);
  const size_t v4_boundary = bytes.size() - v5_tail_bytes;
  const size_t disk_boundary = bytes.size() - disk_tail_bytes;
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    std::string torn = bytes;
    ASSERT_TRUE(FaultInjector::Truncate(&torn, keep).ok());
    io::BinaryReader torn_reader(torn);
    auto torn_stats = DecodeMonitorStats(&torn_reader);
    if (keep == v4_boundary) {
      ASSERT_TRUE(torn_stats.ok()) << keep;
      EXPECT_EQ(torn_stats->serving.pings_served, 5u);
      EXPECT_EQ(torn_stats->serving.subscriptions_active, 0u);
      EXPECT_EQ(torn_stats->serving.ingest_batches, 0u);
      EXPECT_EQ(torn_stats->serving.disk_io_errors, 0u);
      EXPECT_FALSE(torn_stats->serving.read_only);
    } else if (keep == disk_boundary) {
      ASSERT_TRUE(torn_stats.ok()) << keep;
      EXPECT_EQ(torn_stats->serving.subscriptions_active, 3u);
      EXPECT_EQ(torn_stats->serving.ingest_batches, 13u);
      EXPECT_EQ(torn_stats->serving.disk_io_errors, 0u);
      EXPECT_FALSE(torn_stats->serving.disk_full);
      EXPECT_FALSE(torn_stats->serving.read_only);
    } else {
      EXPECT_FALSE(torn_stats.ok()) << keep;
    }
  }
}

// Corruption in one frame of a concatenated stream must not desync the
// frames before it: each successful decode consumes exactly one frame.
TEST(FrameFuzzTest, StreamStaysFramedUpToTheCorruption) {
  const std::string good = SampleFrame();
  std::string second = SampleFrame();
  ASSERT_TRUE(FaultInjector::FlipBits(&second, 2, 7).ok());
  const std::string stream = good + second + good;
  io::BinaryReader reader(stream);
  ASSERT_TRUE(DecodeFrame(&reader).ok());
  EXPECT_EQ(reader.position(), good.size());
  auto corrupt = DecodeFrame(&reader);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_TRUE(IsFuzzStatus(corrupt.status()));
}

// --- Correlation-id multiplexing and push frames. ---

std::string SamplePushFrame(uint64_t correlation) {
  PushEvent event;
  event.subscription_id = 3;
  event.sequence = 12;
  event.kind = PushKind::kMatch;
  event.svs_id = 99;
  event.camera = "cam-harbor";
  event.start_ms = 10'000;
  event.end_ms = 30'000;
  event.distance = 1.25;
  io::BinaryWriter payload;
  EncodePushEvent(&payload, event);
  return EncodeFrame(static_cast<uint32_t>(MsgType::kPushEvent), correlation,
                     payload.buffer());
}

TEST(FrameFuzzV5Test, IntactFrameRoundTripsWithCorrelation) {
  io::BinaryWriter payload;
  EncodeSubscribeRequest(&payload, {});
  const std::string bytes = EncodeFrame(
      static_cast<uint32_t>(MsgType::kSubscribe), 0x1122334455667788ULL,
      payload.buffer());
  EXPECT_EQ(bytes.size(), WireFrameBytes(payload.buffer().size()));
  io::BinaryReader reader(bytes);
  auto frame = DecodeFrame(&reader);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, static_cast<uint32_t>(MsgType::kSubscribe));
  EXPECT_EQ(frame->correlation, 0x1122334455667788ULL);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(FrameFuzzV5Test, EveryTruncationIsDataLoss) {
  const std::string bytes = SamplePushFrame(42);
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    std::string torn = bytes;
    ASSERT_TRUE(FaultInjector::Truncate(&torn, keep).ok());
    io::BinaryReader reader(torn);
    auto frame = DecodeFrame(&reader);
    ASSERT_FALSE(frame.ok()) << "prefix of " << keep << " bytes decoded";
    EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss)
        << "prefix " << keep << ": " << frame.status().ToString();
  }
}

TEST(FrameFuzzV5Test, BitFlipsNeverDecodeQuietly) {
  const std::string bytes = SamplePushFrame(7);
  for (uint64_t seed = 0; seed < 300; ++seed) {
    for (size_t flips = 1; flips <= 3; ++flips) {
      std::string corrupt = bytes;
      ASSERT_TRUE(FaultInjector::FlipBits(&corrupt, flips, seed).ok());
      io::BinaryReader reader(corrupt);
      auto frame = DecodeFrame(&reader);
      ASSERT_FALSE(frame.ok())
          << "seed " << seed << ", " << flips << " flips decoded quietly";
      EXPECT_TRUE(IsFuzzStatus(frame.status())) << frame.status().ToString();
    }
  }
}

// A frame whose length field claims more than kMaxPayloadBytes must be
// rejected before any allocation happens.
TEST(FrameFuzzV5Test, HostileLengthRejectedWithoutAllocation) {
  io::BinaryWriter writer;
  writer.WriteU32(kWireMagic);
  writer.WriteU32(static_cast<uint32_t>(MsgType::kPushEvent));
  writer.WriteU64(1);  // correlation
  writer.WriteU64(kMaxPayloadBytes + 1);
  writer.WriteU32(0xDEADBEEF);  // placeholder crc; length check comes first
  io::BinaryReader reader(writer.buffer());
  EXPECT_EQ(DecodeFrame(&reader).status().code(),
            StatusCode::kInvalidArgument);
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex += kDigits[c >> 4];
    hex += kDigits[c & 0xF];
  }
  return hex;
}

// Golden bytes of the frame layout at fixed correlation ids. The ping and
// push fixtures were captured from the protocol v5 encoder, so they also
// prove that every frame other than the Hello is unchanged since v5.
TEST(FrameFuzzV5Test, GoldenBytesPinTheLayout) {
  io::BinaryWriter hello;
  hello.WriteU32(kProtocolVersion);
  EXPECT_EQ(Hex(EncodeFrame(static_cast<uint32_t>(MsgType::kHello), 0,
                            hello.buffer())),
            "35525a56010000000000000000000000040000000000000006000000"
            "a4cb8904");
  EXPECT_EQ(Hex(EncodeFrame(static_cast<uint32_t>(MsgType::kPing), 1, "")),
            "35525a560f000000010000000000000000000000000000003d7a22dd");
  io::BinaryWriter ok;
  EncodeWireStatus(&ok, {Status::OK(), 0});
  EXPECT_EQ(Hex(EncodeFrame(
                static_cast<uint32_t>(MsgType::kPing) | kResponseFlag, 1,
                ok.buffer())),
            "35525a560f000080010000000000000014000000000000000000000000"
            "00000000000000000000000000000042575a46");
  PushEvent gap;
  gap.subscription_id = 3;
  gap.sequence = 4;
  gap.kind = PushKind::kGap;
  gap.dropped = 2;
  io::BinaryWriter push;
  EncodePushEvent(&push, gap);
  EXPECT_EQ(Hex(EncodeFrame(static_cast<uint32_t>(MsgType::kPushEvent), 5,
                            push.buffer())),
            "35525a561800000005000000000000001c0000000000000003000000000000"
            "000400000000000000020000000200000000000000e5359e60");
}

// A multiplexed stream: a response frame, an asynchronous push with an
// unrelated correlation id, another response. Each decode consumes exactly
// one frame and carries its own correlation — the demux loop's ground truth.
TEST(FrameFuzzV5Test, InterleavedPushFramesStayFramed) {
  io::BinaryWriter status_payload;
  EncodeWireStatus(&status_payload, {Status::OK(), 0});
  const uint32_t response_type =
      static_cast<uint32_t>(MsgType::kPing) | kResponseFlag;
  const std::string first =
      EncodeFrame(response_type, 5, status_payload.buffer());
  const std::string push = SamplePushFrame(0xFEEDFACE);  // unknown to nobody
  const std::string second =
      EncodeFrame(response_type, 6, status_payload.buffer());
  const std::string stream = first + push + second;

  io::BinaryReader reader(stream);
  auto a = DecodeFrame(&reader);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->correlation, 5u);
  EXPECT_EQ(reader.position(), first.size());
  auto b = DecodeFrame(&reader);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->type, static_cast<uint32_t>(MsgType::kPushEvent));
  EXPECT_EQ(b->correlation, 0xFEEDFACEu);
  auto c = DecodeFrame(&reader);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->correlation, 6u);
  EXPECT_EQ(reader.remaining(), 0u);

  // Corruption in the push frame must not desync the response before it.
  std::string corrupt_push = push;
  ASSERT_TRUE(FaultInjector::FlipBits(&corrupt_push, 2, 3).ok());
  io::BinaryReader torn_reader(first + corrupt_push + second);
  ASSERT_TRUE(DecodeFrame(&torn_reader).ok());
  auto torn = DecodeFrame(&torn_reader);
  ASSERT_FALSE(torn.ok());
  EXPECT_TRUE(IsFuzzStatus(torn.status()));
}

// A well-framed push frame (CRC valid) whose payload is a torn PushEvent
// encoding: the framing layer accepts it, the payload codec must fail with
// a status — the demux loop then drops the push and keeps the stream.
TEST(FrameFuzzV5Test, TornPushPayloadFailsCleanlyInsideAValidFrame) {
  PushEvent event;
  event.subscription_id = 1;
  event.kind = PushKind::kGap;
  event.dropped = 17;
  io::BinaryWriter payload;
  EncodePushEvent(&payload, event);
  const std::string intact = payload.buffer();
  for (size_t keep = 0; keep < intact.size(); ++keep) {
    std::string torn = intact;
    ASSERT_TRUE(FaultInjector::Truncate(&torn, keep).ok());
    const std::string framed = EncodeFrame(
        static_cast<uint32_t>(MsgType::kPushEvent), 9, torn);
    io::BinaryReader reader(framed);
    auto frame = DecodeFrame(&reader);
    ASSERT_TRUE(frame.ok()) << "framing must accept a valid CRC";
    io::BinaryReader payload_reader(frame->payload);
    EXPECT_FALSE(DecodePushEvent(&payload_reader).ok()) << keep;
  }
}

// The codec encodes only the fields of the announced kind — a push frame
// carries no dead weight from the other variants.
TEST(FrameFuzzV5Test, PushEventRoundTripsEveryKind) {
  for (PushKind kind :
       {PushKind::kMatch, PushKind::kIndexUpdate, PushKind::kGap}) {
    PushEvent event;
    event.subscription_id = 8;
    event.sequence = 21;
    event.kind = kind;
    event.svs_id = 5;
    event.camera = "cam-x";
    event.start_ms = -10;
    event.end_ms = 40;
    event.distance = 0.5;
    event.index_version = 33;
    event.dropped = 2;
    io::BinaryWriter writer;
    EncodePushEvent(&writer, event);
    io::BinaryReader reader(writer.buffer());
    auto decoded = DecodePushEvent(&reader);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(reader.remaining(), 0u);
    EXPECT_EQ(decoded->subscription_id, 8u);
    EXPECT_EQ(decoded->sequence, 21u);
    EXPECT_EQ(decoded->kind, kind);
    switch (kind) {
      case PushKind::kMatch:
        EXPECT_EQ(decoded->svs_id, 5);
        EXPECT_EQ(decoded->camera, "cam-x");
        EXPECT_EQ(decoded->start_ms, -10);
        EXPECT_EQ(decoded->end_ms, 40);
        EXPECT_EQ(decoded->distance, 0.5);
        break;
      case PushKind::kIndexUpdate:
        EXPECT_EQ(decoded->index_version, 33u);
        break;
      case PushKind::kGap:
        EXPECT_EQ(decoded->dropped, 2u);
        break;
    }
  }
  // A gap marker claiming zero drops is well-formed-but-alien.
  PushEvent empty_gap;
  empty_gap.kind = PushKind::kGap;
  empty_gap.dropped = 0;
  io::BinaryWriter writer;
  EncodePushEvent(&writer, empty_gap);
  io::BinaryReader reader(writer.buffer());
  EXPECT_EQ(DecodePushEvent(&reader).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameFuzzV5Test, SubscribeAndAdminTunePayloadsRoundTrip) {
  SubscribeRequest request;
  request.query = FeatureVector({0.5f, 1.5f});
  request.threshold = 2.75;
  request.has_camera_filter = true;
  request.cameras = {"cam-a", "cam-b"};
  request.want_matches = true;
  request.want_stats = true;
  io::BinaryWriter writer;
  EncodeSubscribeRequest(&writer, request);
  io::BinaryReader reader(writer.buffer());
  auto decoded = DecodeSubscribeRequest(&reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(decoded->threshold, 2.75);
  EXPECT_TRUE(decoded->has_camera_filter);
  EXPECT_EQ(decoded->cameras, request.cameras);
  EXPECT_TRUE(decoded->want_stats);

  AdminTuneRequest tune;
  tune.boundary_scale = 1.5;
  tune.keyframe_selection = false;
  io::BinaryWriter tune_writer;
  EncodeAdminTuneRequest(&tune_writer, tune);
  io::BinaryReader tune_reader(tune_writer.buffer());
  auto tuned = DecodeAdminTuneRequest(&tune_reader);
  ASSERT_TRUE(tuned.ok()) << tuned.status().ToString();
  EXPECT_EQ(tune_reader.remaining(), 0u);
  ASSERT_TRUE(tuned->boundary_scale.has_value());
  EXPECT_EQ(*tuned->boundary_scale, 1.5);
  ASSERT_TRUE(tuned->keyframe_selection.has_value());
  EXPECT_FALSE(*tuned->keyframe_selection);
  EXPECT_FALSE(tuned->index_mode.has_value());
  EXPECT_FALSE(tuned->omd_alpha.has_value());

  // Truncation sweeps over both payloads: never a crash, never a success.
  for (const std::string& bytes :
       {writer.buffer(), tune_writer.buffer()}) {
    for (size_t keep = 0; keep < bytes.size(); ++keep) {
      std::string torn = bytes;
      ASSERT_TRUE(FaultInjector::Truncate(&torn, keep).ok());
      io::BinaryReader torn_reader(torn);
      if (bytes == writer.buffer()) {
        EXPECT_FALSE(DecodeSubscribeRequest(&torn_reader).ok()) << keep;
      } else {
        EXPECT_FALSE(DecodeAdminTuneRequest(&torn_reader).ok()) << keep;
      }
    }
  }
}

// --- The length-prefixed-bytes primitives the frame codec is built on. ---

TEST(LengthPrefixedBytesTest, RoundTripsIncludingEmptyAndBinary) {
  io::BinaryWriter writer;
  writer.WriteLengthPrefixedBytes("");
  writer.WriteLengthPrefixedBytes(std::string("\x00\xFFmid\x00", 6));
  io::BinaryReader reader(writer.buffer());
  auto empty = reader.ReadLengthPrefixedBytes();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  auto binary = reader.ReadLengthPrefixedBytes();
  ASSERT_TRUE(binary.ok());
  EXPECT_EQ(*binary, std::string("\x00\xFFmid\x00", 6));
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(LengthPrefixedBytesTest, HostileAndTruncatedPrefixesFailSafely) {
  {
    // Length claims far more than the buffer holds (would overflow naive
    // `position + length` arithmetic).
    io::BinaryWriter writer;
    writer.WriteU64(~0ull);
    io::BinaryReader reader(writer.buffer());
    EXPECT_FALSE(reader.ReadLengthPrefixedBytes().ok());
  }
  io::BinaryWriter writer;
  writer.WriteLengthPrefixedBytes("0123456789");
  const std::string bytes = writer.buffer();
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    std::string torn = bytes;
    ASSERT_TRUE(FaultInjector::Truncate(&torn, keep).ok());
    io::BinaryReader reader(torn);
    EXPECT_FALSE(reader.ReadLengthPrefixedBytes().ok()) << keep;
  }
}

// --- The in-memory fault helpers themselves. ---

TEST(BufferFaultTest, HelpersValidateInput) {
  std::string data = "0123456789";
  EXPECT_FALSE(FaultInjector::Truncate(&data, 11).ok());
  ASSERT_TRUE(FaultInjector::Truncate(&data, 4).ok());
  EXPECT_EQ(data, "0123");
  ASSERT_TRUE(FaultInjector::FlipBits(&data, 2, 5).ok());
  EXPECT_NE(data, "0123");
  ASSERT_TRUE(FaultInjector::Truncate(&data, 0).ok());
  EXPECT_FALSE(FaultInjector::FlipBits(&data, 1, 5).ok());  // now empty
}

TEST(BufferFaultTest, FlipsAreSeedDeterministic) {
  std::string a = "the quick brown fox";
  std::string b = a;
  std::string c = a;
  ASSERT_TRUE(FaultInjector::FlipBits(&a, 4, 17).ok());
  ASSERT_TRUE(FaultInjector::FlipBits(&b, 4, 17).ok());
  ASSERT_TRUE(FaultInjector::FlipBits(&c, 4, 18).ok());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace vz::net
