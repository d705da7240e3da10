// Fuzzes the wire-frame decoder with the deterministic fault injector:
// truncated frames at every prefix length, seeded bit flips, and
// valid-CRC-but-garbage payloads against every payload codec; pins a
// golden sample request and reply of every message type, and runs each
// through one table of codecs (round trip, every truncation, one appended
// byte, random and bit-flipped payloads). The contract
// under test is the decode failure taxonomy in net/wire.h — corruption
// yields kDataLoss, well-formed-but-alien bytes yield kInvalidArgument, and
// nothing ever crashes, hangs, or allocates from a hostile length field.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "format_golden.h"
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
  io::Encode(&payload, FeatureVector({1.5f, -2.0f, 3.25f, 0.0f}));
  core::QueryConstraints constraints;
  constraints.deadline_ms = 250;
  constraints.cameras = std::vector<core::CameraId>{"cam-a", "cam-b"};
  io::Encode(&payload, constraints);
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

// --- Protocol-v2 wire fields: tokens, ping, supervision stats. ---

TEST(FrameFuzzTest, IdempotencyTokenRoundTripsAndRejectsReservedSession) {
  io::BinaryWriter writer;
  io::Encode(&writer, IdempotencyToken{0x1122334455667788ULL, 42});
  io::BinaryReader reader(writer.buffer());
  auto token = io::Decode<IdempotencyToken>(&reader);
  ASSERT_TRUE(token.ok());
  EXPECT_EQ(token->session_id, 0x1122334455667788ULL);
  EXPECT_EQ(token->sequence, 42u);
  EXPECT_EQ(reader.remaining(), 0u);

  // Session id 0 is reserved as "no token": a frame carrying it is
  // well-formed but alien — kInvalidArgument, not kDataLoss.
  io::BinaryWriter reserved;
  io::Encode(&reserved, IdempotencyToken{0, 7});
  io::BinaryReader reserved_reader(reserved.buffer());
  auto rejected = io::Decode<IdempotencyToken>(&reserved_reader);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameFuzzTest, TruncatedTokenIsAlwaysAnError) {
  io::BinaryWriter writer;
  io::Encode(&writer, IdempotencyToken{99, 3});
  const std::string bytes = writer.buffer();
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    std::string torn = bytes;
    ASSERT_TRUE(FaultInjector::Truncate(&torn, keep).ok());
    io::BinaryReader reader(torn);
    EXPECT_FALSE(io::Decode<IdempotencyToken>(&reader).ok()) << keep;
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
  io::Encode(&tokened, IdempotencyToken{77, 8});
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
  io::Encode(&writer, stats);

  io::BinaryReader reader(writer.buffer());
  auto decoded = io::Decode<MonitorStatsReply>(&reader);
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

  // Every truncation is an error: the Hello admits only an exact-version
  // peer, so every sender writes the full payload.
  const std::string bytes = writer.buffer();
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    std::string torn = bytes;
    ASSERT_TRUE(FaultInjector::Truncate(&torn, keep).ok());
    io::BinaryReader torn_reader(torn);
    auto torn_stats = io::Decode<MonitorStatsReply>(&torn_reader);
    EXPECT_FALSE(torn_stats.ok()) << keep;
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
  io::Encode(&payload, event);
  return EncodeFrame(static_cast<uint32_t>(MsgType::kPushEvent), correlation,
                     payload.buffer());
}

TEST(FrameFuzzV5Test, IntactFrameRoundTripsWithCorrelation) {
  io::BinaryWriter payload;
  io::Encode(&payload, SubscribeRequest{});
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
  io::Encode(&push, gap);
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
  io::Encode(&payload, event);
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
    EXPECT_FALSE(io::Decode<PushEvent>(&payload_reader).ok()) << keep;
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
    io::Encode(&writer, event);
    io::BinaryReader reader(writer.buffer());
    auto decoded = io::Decode<PushEvent>(&reader);
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
  io::Encode(&writer, empty_gap);
  io::BinaryReader reader(writer.buffer());
  EXPECT_EQ(io::Decode<PushEvent>(&reader).status().code(),
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
  io::Encode(&writer, request);
  io::BinaryReader reader(writer.buffer());
  auto decoded = io::Decode<SubscribeRequest>(&reader);
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
  io::Encode(&tune_writer, tune);
  io::BinaryReader tune_reader(tune_writer.buffer());
  auto tuned = io::Decode<AdminTuneRequest>(&tune_reader);
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
        EXPECT_FALSE(io::Decode<SubscribeRequest>(&torn_reader).ok()) << keep;
      } else {
        EXPECT_FALSE(io::Decode<AdminTuneRequest>(&torn_reader).ok()) << keep;
      }
    }
  }
}

// --- Golden payloads: a sample request and reply of every message type. ---

// Sample values. Every field holds a distinct, exactly representable value,
// so a field that moves or changes width shows up in the golden bytes.
IdempotencyToken SampleToken(uint64_t sequence) {
  return {0x0A0B0C0D0E0F1011ULL, sequence};
}

core::FrameObservation SampleObservation(int64_t frame_id) {
  core::FrameObservation frame;
  frame.camera = "cam-a";
  frame.timestamp_ms = 1'000 * frame_id;
  frame.frame_id = frame_id;
  frame.deviation_from_previous = 0.25;
  frame.encoded_bytes = 4'096;
  core::DetectedObject object;
  object.box = {0.125f, 0.25f, 0.5f, 0.75f};
  object.feature = FeatureVector({1.0f, -2.0f, 0.5f});
  object.class_hint = 3;
  object.class_confidence = 0.875;
  frame.objects.push_back(object);
  return frame;
}

core::QueryConstraints SampleConstraints() {
  core::QueryConstraints constraints;
  constraints.cameras = std::vector<core::CameraId>{"cam-a", "cam-b"};
  constraints.time_range_ms = std::make_pair<int64_t, int64_t>(-5, 90'000);
  constraints.deadline_ms = 250;
  return constraints;
}

FeatureMap SampleMap() {
  FeatureMap map;
  const float a[] = {0.5f, 1.5f};
  const float b[] = {-1.0f, 2.0f};
  EXPECT_TRUE(map.Add(a, 2, 0.75).ok());
  EXPECT_TRUE(map.Add(b, 2, 0.25).ok());
  return map;
}

core::Representative SampleRepresentative() {
  core::WeightedCenter center;
  center.center = FeatureVector({0.5f, 1.5f});
  center.weight = 0.75;
  center.boundary = 1.25;
  center.mean_member_distance = 0.5;
  center.last_hit_ms = 4'000;
  return core::Representative({center});
}

core::DirectQueryResult SampleDirectResult() {
  core::DirectQueryResult result;
  result.candidate_svss = {4, 9, 12};
  result.matched_svss = {9};
  result.total_gpu_ms = 12.5;
  result.bottleneck_camera_gpu_ms = 8.25;
  result.per_camera_gpu_ms = {{"cam-a", 8.25}, {"cam-b", 4.25}};
  result.frames_processed = 31;
  result.cameras_searched = 2;
  result.degraded = true;
  result.excluded_cameras = {"cam-c"};
  result.timed_out = true;
  result.completed_fraction = 0.5;
  return result;
}

core::ClusteringQueryResult SampleClusteringResult() {
  core::ClusteringQueryResult result;
  result.similar_svss = {3, 7};
  result.cameras_contributing = 2;
  result.degraded = false;
  result.excluded_cameras = {"cam-d"};
  result.timed_out = false;
  result.completed_fraction = 1.0;
  result.fast_omd_routed = true;
  return result;
}

core::SvsMetadata SampleMetadata() {
  core::SvsMetadata meta;
  meta.id = 42;
  meta.camera = "cam-a";
  meta.start_ms = 1'000;
  meta.end_ms = 9'000;
  meta.num_frames = 8;
  meta.encoded_bytes = 65'536;
  meta.access_count = 5;
  meta.last_access_ms = 8'500;
  meta.access_frequency = 0.5;
  return meta;
}

MonitorStatsReply SampleMonitorStats() {
  MonitorStatsReply stats;
  stats.ingest = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  stats.cache = {10, 11, 12, 13, 14, 15, 16};
  stats.svs_count = 17;
  stats.camera_count = 18;
  stats.now_ms = 19;
  ServingStats& serving = stats.serving;
  serving.connections_accepted = 20;
  serving.connections_shed = 21;
  serving.connections_evicted_idle = 22;
  serving.connections_evicted_slow = 23;
  serving.duplicates_replayed = 24;
  serving.pings_served = 25;
  serving.sessions_active = 26;
  serving.sessions_evicted = 27;
  serving.role = ServerRole::kPromoted;
  serving.wal_appends = 28;
  serving.wal_fsyncs = 29;
  serving.wal_replayed_records = 30;
  serving.wal_salvaged_bytes = 31;
  serving.wal_checkpoints = 32;
  serving.wal_last_lsn = 33;
  serving.wal_durable_lsn = 34;
  serving.replication_lag_records = 35;
  serving.replication_reseeds = 36;
  serving.connections.push_back({37, 38, 39, 40, 41, 42});
  serving.connections.push_back({43, 44, 45, 46, 47, 48});
  ShardHealthInfo shard;
  shard.host = "edge-1";
  shard.port = 7'001;
  shard.state = ShardState::kDegraded;
  shard.consecutive_failures = 49;
  shard.rep_staleness_ms = -1;
  shard.rep_entries = 50;
  shard.cameras = 51;
  serving.shards.push_back(shard);
  serving.subscriptions_active = 52;
  serving.subscriptions_total = 53;
  serving.pushes_sent = 54;
  serving.push_drops = 55;
  serving.push_gaps_sent = 56;
  serving.ingest_batches = 57;
  serving.disk_io_errors = 58;
  serving.disk_fsync_failures = 59;
  serving.checkpoints_quarantined = 60;
  serving.disk_full = true;
  serving.read_only = false;
  return stats;
}

std::vector<CameraHealthEntry> SampleCameraHealth() {
  return {{"cam-a", core::CameraHealth::kHealthy},
          {"cam-b", core::CameraHealth::kStalled}};
}

core::QueryLoadStats SampleQueryLoad() {
  core::QueryLoadStats stats;
  stats.in_flight = 1;
  stats.waiting = 2;
  stats.admitted = 3;
  stats.shed = 4;
  stats.timed_out = 5;
  stats.fast_omd_routed = 6;
  stats.timeout_overshoot_ms_total = -7;
  stats.max_in_flight = 8;
  stats.max_queue = 9;
  stats.omd_failures = 10;
  return stats;
}

WalShipReply SampleWalShipReply() {
  WalShipReply reply;
  reply.durable_lsn = 43;
  reply.epoch = 3;
  io::WalRecord frame;
  frame.lsn = 42;
  frame.session_id = 11;
  frame.sequence = 5;
  frame.op = static_cast<uint32_t>(MsgType::kIngestFrame);
  frame.epoch = 3;
  frame.payload = "frame-42";
  io::WalRecord marker;
  marker.lsn = 43;
  marker.op = io::kWalOpEpochMarker;
  marker.epoch = 3;
  reply.records = {frame, marker};
  return reply;
}

RepSyncReply SampleRepSyncReply() {
  RepSyncReply reply;
  reply.version = 7;
  core::InterCameraIndex::RepEntry entry;
  entry.camera = "cam-a";
  entry.intra_cluster_index = 1;
  entry.map = SampleMap();
  entry.rep = SampleRepresentative();
  reply.entries.push_back(entry);
  return reply;
}

CheckpointFetchReply SampleCheckpointFetchReply() {
  CheckpointFetchReply reply;
  reply.lsn = 40;
  reply.epoch = 2;
  reply.snapshot_bytes = "VZSS-bytes";
  reply.meta_bytes = "VZWM-bytes";
  return reply;
}

SubscribeRequest SampleSubscribeRequest() {
  SubscribeRequest request;
  request.query = FeatureVector({0.5f, 1.5f});
  request.threshold = 2.5;
  request.has_camera_filter = true;
  request.cameras = {"cam-a"};
  request.want_matches = true;
  request.want_stats = true;
  return request;
}

PushEvent SamplePush(PushKind kind) {
  PushEvent event;
  event.subscription_id = 3;
  event.sequence = 12 + static_cast<uint64_t>(kind);
  event.kind = kind;
  event.svs_id = 99;
  event.camera = "cam-harbor";
  event.start_ms = 10'000;
  event.end_ms = 30'000;
  event.distance = 1.25;
  event.index_version = 77;
  event.dropped = 5;
  return event;
}

AdminTuneRequest SampleAdminTuneRequest() {
  AdminTuneRequest request;
  request.index_mode = 1;
  request.boundary_scale = 1.5;
  request.keyframe_selection = false;
  request.intra_cluster_count = 4;
  return request;
}

AdminTuneReply SampleAdminTuneReply() {
  AdminTuneReply reply;
  reply.index_mode = 1;
  reply.boundary_scale = 1.5;
  reply.omd_alpha = 0.25;
  reply.keyframe_selection = false;
  reply.inter_group_count = 0;
  reply.intra_cluster_count = 4;
  return reply;
}

// Encodes one sample value the way the wire carries it.
template <typename T>
std::string Bytes(const T& value) {
  io::BinaryWriter writer;
  io::Encode(&writer, value);
  return writer.buffer();
}

std::string StatusBytes(const Status& status, int64_t retry_after_ms) {
  io::BinaryWriter writer;
  EncodeWireStatus(&writer, {status, retry_after_ms});
  return writer.buffer();
}

// One sample payload per direction of every message type: requests as the
// client sends them (mutating ones behind their idempotency token), replies
// as the server answers (behind an OK status).
std::vector<std::pair<std::string, std::string>> SamplePayloads() {
  const std::string ok = StatusBytes(Status::OK(), 0);
  const std::string camera = Bytes(std::string("cam-a"));
  const std::string path = Bytes(std::string("/var/vz/snap.vzss"));
  return {
      {"hello.request", Bytes(kProtocolVersion)},
      {"hello.reply", ok + Bytes(kProtocolVersion)},
      {"camera_start.request", Bytes(SampleToken(1)) + camera},
      {"camera_start.reply", ok},
      {"camera_terminate.request", Bytes(SampleToken(2)) + camera},
      {"camera_terminate.reply", ok},
      {"ingest_frame.request",
       Bytes(SampleToken(3)) + Bytes(SampleObservation(4))},
      {"ingest_frame.reply", ok},
      {"flush.request", Bytes(SampleToken(4))},
      {"flush.reply", ok},
      {"direct_query.request", Bytes(FeatureVector({1.5f, -2.0f, 0.25f})) +
                                   Bytes(SampleConstraints())},
      {"direct_query.reply", ok + Bytes(SampleDirectResult())},
      {"clustering_by_id.request",
       Bytes(int64_t{42}) + Bytes(core::QueryConstraints{})},
      {"clustering_by_id.reply", ok + Bytes(SampleClusteringResult())},
      {"clustering_by_map.request",
       Bytes(SampleMap()) + Bytes(SampleConstraints())},
      {"clustering_by_map.reply", ok + Bytes(SampleClusteringResult())},
      {"get_metadata.request", Bytes(int64_t{42})},
      {"get_metadata.reply", ok + Bytes(SampleMetadata())},
      {"monitor_stats.request", ""},
      {"monitor_stats.reply", ok + Bytes(SampleMonitorStats())},
      {"camera_health.request", ""},
      {"camera_health.reply", ok + Bytes(SampleCameraHealth())},
      {"query_load_stats.request", ""},
      {"query_load_stats.reply", ok + Bytes(SampleQueryLoad())},
      {"snapshot_save.request", Bytes(SampleToken(5)) + path},
      {"snapshot_save.reply", ok},
      {"snapshot_load.request", Bytes(SampleToken(6)) + path},
      {"snapshot_load.reply", ok + Bytes(uint64_t{3})},
      {"ping.request", ""},
      {"ping.reply", ok},
      {"wal_ship.request", Bytes(WalShipRequest{41, 64, 250, 3})},
      {"wal_ship.reply", ok + Bytes(SampleWalShipReply())},
      {"rep_sync.request", Bytes(RepSyncRequest{6})},
      {"rep_sync.reply", ok + Bytes(SampleRepSyncReply())},
      {"svs_feature_map.request", Bytes(int64_t{42})},
      {"svs_feature_map.reply", ok + Bytes(SampleMap())},
      {"checkpoint_fetch.request", ""},
      {"checkpoint_fetch.reply", ok + Bytes(SampleCheckpointFetchReply())},
      {"subscribe.request", Bytes(SampleSubscribeRequest())},
      {"subscribe.reply", ok + Bytes(uint64_t{5})},
      {"unsubscribe.request", Bytes(uint64_t{5})},
      {"unsubscribe.reply", ok},
      {"ingest_batch.request", Bytes(SampleToken(7)) + Bytes(uint32_t{2}) +
                                   Bytes(SampleObservation(5)) +
                                   Bytes(SampleObservation(6))},
      {"ingest_batch.reply", ok + Bytes(IngestBatchReply{2, 0})},
      {"admin_tune.request",
       Bytes(SampleToken(8)) + Bytes(SampleAdminTuneRequest())},
      {"admin_tune.reply", ok + Bytes(SampleAdminTuneReply())},
      {"push.match", Bytes(SamplePush(PushKind::kMatch))},
      {"push.index_update", Bytes(SamplePush(PushKind::kIndexUpdate))},
      {"push.gap", Bytes(SamplePush(PushKind::kGap))},
      {"shed.reply",
       StatusBytes(Status::ResourceExhausted("server overloaded"), 25)},
  };
}

TEST(WireGoldenTest, EveryMessagePayloadMatchesItsFixture) {
  for (const auto& [name, bytes] : SamplePayloads()) {
    EXPECT_EQ(testing::HexOf(bytes), testing::GoldenHex(name))
        << "golden " << name << " " << testing::HexOf(bytes);
  }
}

// --- Every message type from one table. ---

// Decodes a whole payload and re-encodes what it decoded.
using RoundTrip = std::function<StatusOr<std::string>(const std::string&)>;

// A request: the body, behind an idempotency token when `type` mutates.
template <typename Body>
RoundTrip Request(MsgType type) {
  return [type](const std::string& payload) -> StatusOr<std::string> {
    io::BinaryReader reader(payload);
    io::BinaryWriter writer;
    if (IsMutatingType(static_cast<uint32_t>(type))) {
      VZ_ASSIGN_OR_RETURN(IdempotencyToken token,
                          io::DecodePrefix<IdempotencyToken>(&reader));
      io::Encode(&writer, token);
    }
    VZ_ASSIGN_OR_RETURN(Body body, io::Decode<Body>(&reader));
    io::Encode(&writer, body);
    return writer.buffer();
  };
}

// A reply: the wire status, then the body.
template <typename Body>
RoundTrip Reply() {
  return [](const std::string& payload) -> StatusOr<std::string> {
    io::BinaryReader reader(payload);
    VZ_ASSIGN_OR_RETURN(WireStatus status, DecodeWireStatus(&reader));
    VZ_ASSIGN_OR_RETURN(Body body, io::Decode<Body>(&reader));
    io::BinaryWriter writer;
    EncodeWireStatus(&writer, status);
    io::Encode(&writer, body);
    return writer.buffer();
  };
}

// One row per message type. `name` prefixes its fixtures:
// "<name>.request" and "<name>.reply", or one "<name>.<kind>" per push kind
// for kPushEvent, which has no reply.
struct MessageCodec {
  MsgType type;
  std::string name;
  RoundTrip request;
  RoundTrip reply;
};

std::vector<MessageCodec> MessageTable() {
  using T = MsgType;
  return {
      {T::kHello, "hello", Request<uint32_t>(T::kHello), Reply<uint32_t>()},
      {T::kCameraStart, "camera_start", Request<std::string>(T::kCameraStart),
       Reply<EmptyPayload>()},
      {T::kCameraTerminate, "camera_terminate",
       Request<std::string>(T::kCameraTerminate), Reply<EmptyPayload>()},
      {T::kIngestFrame, "ingest_frame",
       Request<core::FrameObservation>(T::kIngestFrame),
       Reply<EmptyPayload>()},
      {T::kFlush, "flush", Request<EmptyPayload>(T::kFlush),
       Reply<EmptyPayload>()},
      {T::kDirectQuery, "direct_query",
       Request<DirectQueryRequest>(T::kDirectQuery),
       Reply<core::DirectQueryResult>()},
      {T::kClusteringQueryById, "clustering_by_id",
       Request<ClusteringByIdRequest>(T::kClusteringQueryById),
       Reply<core::ClusteringQueryResult>()},
      {T::kClusteringQueryByMap, "clustering_by_map",
       Request<ClusteringByMapRequest>(T::kClusteringQueryByMap),
       Reply<core::ClusteringQueryResult>()},
      {T::kGetMetaData, "get_metadata", Request<core::SvsId>(T::kGetMetaData),
       Reply<core::SvsMetadata>()},
      {T::kMonitorStats, "monitor_stats",
       Request<EmptyPayload>(T::kMonitorStats), Reply<MonitorStatsReply>()},
      {T::kCameraHealth, "camera_health",
       Request<EmptyPayload>(T::kCameraHealth),
       Reply<std::vector<CameraHealthEntry>>()},
      {T::kQueryLoadStats, "query_load_stats",
       Request<EmptyPayload>(T::kQueryLoadStats),
       Reply<core::QueryLoadStats>()},
      {T::kSnapshotSave, "snapshot_save",
       Request<std::string>(T::kSnapshotSave), Reply<EmptyPayload>()},
      {T::kSnapshotLoad, "snapshot_load",
       Request<std::string>(T::kSnapshotLoad), Reply<uint64_t>()},
      {T::kPing, "ping", Request<EmptyPayload>(T::kPing),
       Reply<EmptyPayload>()},
      {T::kWalShip, "wal_ship", Request<WalShipRequest>(T::kWalShip),
       Reply<WalShipReply>()},
      {T::kRepSync, "rep_sync", Request<RepSyncRequest>(T::kRepSync),
       Reply<RepSyncReply>()},
      {T::kSvsFeatureMap, "svs_feature_map",
       Request<core::SvsId>(T::kSvsFeatureMap), Reply<FeatureMap>()},
      {T::kCheckpointFetch, "checkpoint_fetch",
       Request<EmptyPayload>(T::kCheckpointFetch),
       Reply<CheckpointFetchReply>()},
      {T::kSubscribe, "subscribe", Request<SubscribeRequest>(T::kSubscribe),
       Reply<uint64_t>()},
      {T::kUnsubscribe, "unsubscribe", Request<uint64_t>(T::kUnsubscribe),
       Reply<EmptyPayload>()},
      {T::kIngestBatch, "ingest_batch",
       Request<IngestBatchRequest>(T::kIngestBatch),
       Reply<IngestBatchReply>()},
      {T::kAdminTune, "admin_tune", Request<AdminTuneRequest>(T::kAdminTune),
       Reply<AdminTuneReply>()},
      {T::kPushEvent, "push", Request<PushEvent>(T::kPushEvent), nullptr},
  };
}

// Every fixture payload with the codec that must round-trip it.
std::vector<std::pair<std::string, RoundTrip>> CodecCases() {
  std::vector<std::pair<std::string, RoundTrip>> cases;
  for (const MessageCodec& codec : MessageTable()) {
    if (codec.reply == nullptr) {
      for (const char* kind : {"match", "index_update", "gap"}) {
        cases.emplace_back(codec.name + "." + kind, codec.request);
      }
      continue;
    }
    cases.emplace_back(codec.name + ".request", codec.request);
    cases.emplace_back(codec.name + ".reply", codec.reply);
  }
  cases.emplace_back("shed.reply", Reply<EmptyPayload>());
  return cases;
}

bool HasFixture(const std::string& name) {
  for (const testing::GoldenBytes& golden : testing::kGoldenBytes) {
    if (name == golden.name) return true;
  }
  return false;
}

TEST(MessageTableTest, CoversEveryKnownMessageType) {
  std::set<uint32_t> covered;
  for (const MessageCodec& codec : MessageTable()) {
    EXPECT_TRUE(covered.insert(static_cast<uint32_t>(codec.type)).second)
        << codec.name << " listed twice";
  }
  for (uint32_t type = 0; type < 256; ++type) {
    EXPECT_EQ(IsKnownMessageType(type), covered.count(type) == 1) << type;
  }
  for (const auto& [name, codec] : CodecCases()) {
    EXPECT_TRUE(HasFixture(name)) << name;
  }
}

TEST(MessageTableTest, EveryFixtureRoundTripsAndFailsWhenTornOrExtended) {
  for (const auto& [name, codec] : CodecCases()) {
    SCOPED_TRACE(name);
    const std::string bytes = testing::BytesOfHex(testing::GoldenHex(name));
    auto again = codec(bytes);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(testing::HexOf(*again), testing::HexOf(bytes));
    for (size_t keep = 0; keep < bytes.size(); ++keep) {
      EXPECT_FALSE(codec(bytes.substr(0, keep)).ok()) << "prefix " << keep;
    }
    auto extended = codec(bytes + '\0');
    ASSERT_FALSE(extended.ok());
    EXPECT_TRUE(IsFuzzStatus(extended.status()))
        << extended.status().ToString();
  }
}

// Random payloads and bit-flipped fixtures against every codec: each call
// returns a status; none crashes, hangs or allocates from a hostile count.
TEST(MessageTableTest, RandomAndFlippedPayloadsNeverCrash) {
  Rng rng(2026);
  for (const auto& [name, codec] : CodecCases()) {
    const std::string bytes = testing::BytesOfHex(testing::GoldenHex(name));
    for (int round = 0; round < 100; ++round) {
      std::string payload(rng.UniformUint64(128), '\0');
      for (char& c : payload) c = static_cast<char>(rng.UniformUint64(256));
      (void)codec(payload);
      if (bytes.empty()) continue;
      std::string flipped = bytes;
      ASSERT_TRUE(
          FaultInjector::FlipBits(&flipped, 1 + round % 4, rng.NextUint64())
              .ok());
      (void)codec(flipped);
    }
  }
}

// The element-count checks use minimum sizes derived from the Visits; each
// is pinned to the byte count of the element's smallest encoding.
TEST(MessageTableTest, DerivedMinimumSizesMatchTheWireLayout) {
  EXPECT_EQ(io::MinEncodedSize<core::SvsId>(), 8u);
  EXPECT_EQ(io::MinEncodedSize<std::string>(), 8u);
  EXPECT_EQ(io::MinEncodedSize<io::DecodedFeatureRow>(), 16u);
  EXPECT_EQ((io::MinEncodedSize<std::pair<core::CameraId, double>>()), 16u);
  EXPECT_EQ(io::MinEncodedSize<core::DetectedObject>(), 40u);
  EXPECT_EQ(io::MinEncodedSize<core::WeightedCenter>(), 40u);
  EXPECT_EQ(io::MinEncodedSize<ConnectionInfo>(), 48u);
  EXPECT_EQ(io::MinEncodedSize<ShardHealthInfo>(), 48u);
  EXPECT_EQ(io::MinEncodedSize<CameraHealthEntry>(), 9u);
  EXPECT_EQ(io::MinEncodedSize<io::WalRecord>(), 44u);
  EXPECT_EQ(io::MinEncodedSize<core::InterCameraIndex::RepEntry>(), 32u);
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
