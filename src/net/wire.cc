#include "net/wire.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/crc32.h"
#include "common/socket.h"

namespace vz::net {

namespace {

/// Sanity bound on a wire-declared element count: every element of the
/// claimed collection needs at least `min_bytes_per_element` encoded bytes,
/// so a count the remaining buffer cannot possibly hold is corruption (or a
/// hostile peer) and must be rejected before any allocation sized by it.
Status CheckCount(const io::BinaryReader& reader, uint64_t count,
                  size_t min_bytes_per_element) {
  if (count > reader.remaining() / min_bytes_per_element) {
    return Status::DataLoss("implausible element count in payload");
  }
  return Status::OK();
}

Status DecodeIdList(io::BinaryReader* reader, std::vector<core::SvsId>* out) {
  VZ_ASSIGN_OR_RETURN(uint64_t count, reader->ReadU64());
  VZ_RETURN_IF_ERROR(CheckCount(*reader, count, sizeof(int64_t)));
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    VZ_ASSIGN_OR_RETURN(int64_t id, reader->ReadI64());
    out->push_back(id);
  }
  return Status::OK();
}

void EncodeIdList(io::BinaryWriter* writer,
                  const std::vector<core::SvsId>& ids) {
  writer->WriteU64(ids.size());
  for (core::SvsId id : ids) writer->WriteI64(id);
}

Status DecodeStringList(io::BinaryReader* reader,
                        std::vector<std::string>* out) {
  VZ_ASSIGN_OR_RETURN(uint64_t count, reader->ReadU64());
  // An empty string still costs its u64 length prefix.
  VZ_RETURN_IF_ERROR(CheckCount(*reader, count, sizeof(uint64_t)));
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    VZ_ASSIGN_OR_RETURN(std::string s, reader->ReadString());
    out->push_back(std::move(s));
  }
  return Status::OK();
}

void EncodeStringList(io::BinaryWriter* writer,
                      const std::vector<std::string>& strings) {
  writer->WriteU64(strings.size());
  for (const std::string& s : strings) writer->WriteString(s);
}

}  // namespace

bool IsKnownMessageType(uint32_t type) {
  switch (static_cast<MsgType>(type & ~kResponseFlag)) {
    case MsgType::kHello:
    case MsgType::kCameraStart:
    case MsgType::kCameraTerminate:
    case MsgType::kIngestFrame:
    case MsgType::kFlush:
    case MsgType::kDirectQuery:
    case MsgType::kClusteringQueryById:
    case MsgType::kClusteringQueryByMap:
    case MsgType::kGetMetaData:
    case MsgType::kMonitorStats:
    case MsgType::kCameraHealth:
    case MsgType::kQueryLoadStats:
    case MsgType::kSnapshotSave:
    case MsgType::kSnapshotLoad:
    case MsgType::kPing:
    case MsgType::kWalShip:
    case MsgType::kRepSync:
    case MsgType::kSvsFeatureMap:
    case MsgType::kCheckpointFetch:
    case MsgType::kSubscribe:
    case MsgType::kUnsubscribe:
    case MsgType::kIngestBatch:
    case MsgType::kAdminTune:
    case MsgType::kPushEvent:
      return true;
  }
  return false;
}

bool IsMutatingType(uint32_t type) {
  switch (static_cast<MsgType>(type & ~kResponseFlag)) {
    case MsgType::kCameraStart:
    case MsgType::kCameraTerminate:
    case MsgType::kIngestFrame:
    case MsgType::kFlush:
    case MsgType::kSnapshotSave:
    case MsgType::kSnapshotLoad:
    case MsgType::kIngestBatch:
    case MsgType::kAdminTune:
      return true;
    default:
      return false;
  }
}

void EncodeIdempotencyToken(io::BinaryWriter* writer,
                            const IdempotencyToken& token) {
  writer->WriteU64(token.session_id);
  writer->WriteU64(token.sequence);
}

StatusOr<IdempotencyToken> DecodeIdempotencyToken(io::BinaryReader* reader) {
  IdempotencyToken token;
  VZ_ASSIGN_OR_RETURN(token.session_id, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(token.sequence, reader->ReadU64());
  if (token.session_id == 0) {
    return Status::InvalidArgument("idempotency token with zero session id");
  }
  return token;
}

uint32_t StatusCodeToWire(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 0;
    case StatusCode::kInvalidArgument: return 1;
    case StatusCode::kNotFound: return 2;
    case StatusCode::kFailedPrecondition: return 3;
    case StatusCode::kOutOfRange: return 4;
    case StatusCode::kInternal: return 5;
    case StatusCode::kUnimplemented: return 6;
    case StatusCode::kResourceExhausted: return 7;
    case StatusCode::kCancelled: return 8;
    case StatusCode::kDataLoss: return 9;
    case StatusCode::kUnavailable: return 10;
  }
  return 5;  // kInternal
}

StatusCode StatusCodeFromWire(uint32_t wire) {
  switch (wire) {
    case 0: return StatusCode::kOk;
    case 1: return StatusCode::kInvalidArgument;
    case 2: return StatusCode::kNotFound;
    case 3: return StatusCode::kFailedPrecondition;
    case 4: return StatusCode::kOutOfRange;
    case 5: return StatusCode::kInternal;
    case 6: return StatusCode::kUnimplemented;
    case 7: return StatusCode::kResourceExhausted;
    case 8: return StatusCode::kCancelled;
    case 9: return StatusCode::kDataLoss;
    case 10: return StatusCode::kUnavailable;
    default: return StatusCode::kInternal;
  }
}

void EncodeWireStatus(io::BinaryWriter* writer, const WireStatus& status) {
  writer->WriteU32(StatusCodeToWire(status.status.code()));
  writer->WriteString(status.status.message());
  writer->WriteI64(status.retry_after_ms);
}

StatusOr<WireStatus> DecodeWireStatus(io::BinaryReader* reader) {
  VZ_ASSIGN_OR_RETURN(uint32_t code, reader->ReadU32());
  VZ_ASSIGN_OR_RETURN(std::string message, reader->ReadString());
  VZ_ASSIGN_OR_RETURN(int64_t retry_after_ms, reader->ReadI64());
  WireStatus status;
  status.status = Status(StatusCodeFromWire(code), std::move(message));
  status.retry_after_ms = retry_after_ms;
  return status;
}

std::string EncodeFrame(uint32_t type, uint64_t correlation,
                        const std::string& payload) {
  io::BinaryWriter writer;
  writer.WriteU32(kWireMagic);
  writer.WriteU32(type);
  writer.WriteU64(correlation);
  writer.WriteLengthPrefixedBytes(payload);
  // The CRC covers everything after the magic — type, correlation, length
  // and payload — so a flipped bit in any framing field is as detectable as
  // one in the payload.
  writer.WriteU32(
      Crc32(writer.buffer().data() + sizeof(uint32_t),
            writer.buffer().size() - sizeof(uint32_t)));
  return writer.buffer();
}

StatusOr<WireFrame> DecodeFrame(io::BinaryReader* reader) {
  auto magic = reader->ReadU32();
  if (!magic.ok()) return Status::DataLoss("truncated frame header");
  if (*magic != kWireMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  const size_t crc_begin = reader->position();
  auto type = reader->ReadU32();
  if (!type.ok()) return Status::DataLoss("truncated frame header");
  auto correlation = reader->ReadU64();
  if (!correlation.ok()) return Status::DataLoss("truncated frame header");
  auto length = reader->ReadU64();
  if (!length.ok()) return Status::DataLoss("truncated frame header");
  if (*length > kMaxPayloadBytes) {
    return Status::InvalidArgument("oversized frame payload");
  }
  if (*length > reader->remaining()) {
    return Status::DataLoss("truncated frame payload");
  }
  const size_t payload_begin = reader->position();
  (void)reader->Skip(*length);  // bounds just checked
  auto expected_crc = reader->ReadU32();
  if (!expected_crc.ok()) return Status::DataLoss("truncated frame checksum");
  const uint32_t actual_crc =
      Crc32(reader->data().data() + crc_begin,
            payload_begin - crc_begin + *length);
  if (actual_crc != *expected_crc) {
    return Status::DataLoss("frame checksum mismatch");
  }
  if (!IsKnownMessageType(*type)) {
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(*type));
  }
  WireFrame frame;
  frame.type = *type;
  frame.correlation = *correlation;
  frame.payload = reader->data().substr(payload_begin, *length);
  return frame;
}

Status WriteFrame(int fd, uint32_t type, uint64_t correlation,
                  const std::string& payload, int64_t timeout_ms) {
  const std::string bytes = EncodeFrame(type, correlation, payload);
  return SendAll(fd, bytes.data(), bytes.size(), timeout_ms);
}

StatusOr<WireFrame> ReadFrame(int fd, int64_t timeout_ms) {
  // One deadline for the whole frame: header, payload and CRC share the
  // budget, so trickling any part of it counts as a slow peer.
  const auto start = std::chrono::steady_clock::now();
  auto remaining = [&]() -> int64_t {
    if (timeout_ms < 0) return -1;
    const int64_t elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    return std::max<int64_t>(0, timeout_ms - elapsed);
  };
  // Fixed-size prologue: magic, type, correlation, payload length.
  char header[sizeof(uint32_t) * 2 + sizeof(uint64_t) * 2];
  VZ_RETURN_IF_ERROR(RecvExact(fd, header, sizeof(header), remaining()));
  uint32_t magic, type;
  uint64_t correlation, length;
  std::memcpy(&magic, header, sizeof(magic));
  std::memcpy(&type, header + 4, sizeof(type));
  std::memcpy(&correlation, header + 8, sizeof(correlation));
  std::memcpy(&length, header + 16, sizeof(length));
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (length > kMaxPayloadBytes) {
    return Status::InvalidArgument("oversized frame payload");
  }
  std::string payload(length, '\0');
  if (length > 0) {
    Status s = RecvExact(fd, payload.data(), payload.size(), remaining());
    if (!s.ok()) {
      return s.code() == StatusCode::kNotFound
                 ? Status::DataLoss("connection closed mid-frame")
                 : s;
    }
  }
  uint32_t expected_crc;
  Status s = RecvExact(fd, &expected_crc, sizeof(expected_crc), remaining());
  if (!s.ok()) {
    return s.code() == StatusCode::kNotFound
               ? Status::DataLoss("connection closed mid-frame")
               : s;
  }
  uint32_t crc = Crc32Update(0, header + 4, sizeof(header) - 4);
  crc = Crc32Update(crc, payload.data(), payload.size());
  if (crc != expected_crc) {
    return Status::DataLoss("frame checksum mismatch");
  }
  if (!IsKnownMessageType(type)) {
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(type));
  }
  WireFrame frame;
  frame.type = type;
  frame.correlation = correlation;
  frame.payload = std::move(payload);
  return frame;
}

Status WriteEncodedFrames(int fd, const std::vector<std::string>& frames,
                          int64_t timeout_ms) {
  if (frames.empty()) return Status::OK();
  std::vector<ConstBuffer> buffers;
  buffers.reserve(frames.size());
  for (const std::string& f : frames) {
    buffers.push_back({f.data(), f.size()});
  }
  return SendAllV(fd, buffers.data(), buffers.size(), timeout_ms);
}

void EncodeFeatureVector(io::BinaryWriter* writer, const FeatureVector& v) {
  writer->WriteFloats(v.components());
}

StatusOr<FeatureVector> DecodeFeatureVector(io::BinaryReader* reader) {
  VZ_ASSIGN_OR_RETURN(std::vector<float> values, reader->ReadFloats());
  return FeatureVector(std::move(values));
}

void EncodeFeatureMap(io::BinaryWriter* writer, const FeatureMap& map) {
  writer->WriteU64(map.size());
  for (size_t i = 0; i < map.size(); ++i) {
    writer->WriteFloats(map.row(i), map.dim());
    writer->WriteF64(map.weight(i));
  }
}

StatusOr<FeatureMap> DecodeFeatureMap(io::BinaryReader* reader) {
  VZ_ASSIGN_OR_RETURN(uint64_t count, reader->ReadU64());
  VZ_RETURN_IF_ERROR(
      CheckCount(*reader, count, sizeof(uint64_t) + sizeof(double)));
  FeatureMap map;
  for (uint64_t i = 0; i < count; ++i) {
    VZ_ASSIGN_OR_RETURN(std::vector<float> values, reader->ReadFloats());
    VZ_ASSIGN_OR_RETURN(double weight, reader->ReadF64());
    VZ_RETURN_IF_ERROR(map.Add(values.data(), values.size(), weight));
  }
  return map;
}

void EncodeFrameObservation(io::BinaryWriter* writer,
                            const core::FrameObservation& frame) {
  writer->WriteString(frame.camera);
  writer->WriteI64(frame.timestamp_ms);
  writer->WriteI64(frame.frame_id);
  writer->WriteF64(frame.deviation_from_previous);
  writer->WriteU64(frame.encoded_bytes);
  writer->WriteU64(frame.objects.size());
  for (const core::DetectedObject& object : frame.objects) {
    writer->WriteF32(object.box.top);
    writer->WriteF32(object.box.left);
    writer->WriteF32(object.box.bottom);
    writer->WriteF32(object.box.right);
    EncodeFeatureVector(writer, object.feature);
    writer->WriteI64(object.class_hint);
    writer->WriteF64(object.class_confidence);
  }
}

StatusOr<core::FrameObservation> DecodeFrameObservation(
    io::BinaryReader* reader) {
  core::FrameObservation frame;
  VZ_ASSIGN_OR_RETURN(frame.camera, reader->ReadString());
  VZ_ASSIGN_OR_RETURN(frame.timestamp_ms, reader->ReadI64());
  VZ_ASSIGN_OR_RETURN(frame.frame_id, reader->ReadI64());
  VZ_ASSIGN_OR_RETURN(frame.deviation_from_previous, reader->ReadF64());
  VZ_ASSIGN_OR_RETURN(uint64_t encoded_bytes, reader->ReadU64());
  frame.encoded_bytes = static_cast<size_t>(encoded_bytes);
  VZ_ASSIGN_OR_RETURN(uint64_t num_objects, reader->ReadU64());
  // Minimum encoded object: box (4 f32) + empty feature (u64) + class
  // (i64) + confidence (f64).
  VZ_RETURN_IF_ERROR(CheckCount(*reader, num_objects, 40));
  frame.objects.reserve(num_objects);
  for (uint64_t i = 0; i < num_objects; ++i) {
    core::DetectedObject object;
    VZ_ASSIGN_OR_RETURN(object.box.top, reader->ReadF32());
    VZ_ASSIGN_OR_RETURN(object.box.left, reader->ReadF32());
    VZ_ASSIGN_OR_RETURN(object.box.bottom, reader->ReadF32());
    VZ_ASSIGN_OR_RETURN(object.box.right, reader->ReadF32());
    VZ_ASSIGN_OR_RETURN(object.feature, DecodeFeatureVector(reader));
    VZ_ASSIGN_OR_RETURN(int64_t class_hint, reader->ReadI64());
    object.class_hint = static_cast<int>(class_hint);
    VZ_ASSIGN_OR_RETURN(object.class_confidence, reader->ReadF64());
    frame.objects.push_back(std::move(object));
  }
  return frame;
}

void EncodeQueryConstraints(io::BinaryWriter* writer,
                            const core::QueryConstraints& constraints) {
  writer->WriteU8(constraints.cameras.has_value() ? 1 : 0);
  if (constraints.cameras.has_value()) {
    EncodeStringList(writer, *constraints.cameras);
  }
  writer->WriteU8(constraints.time_range_ms.has_value() ? 1 : 0);
  if (constraints.time_range_ms.has_value()) {
    writer->WriteI64(constraints.time_range_ms->first);
    writer->WriteI64(constraints.time_range_ms->second);
  }
  writer->WriteU8(constraints.deadline_ms.has_value() ? 1 : 0);
  if (constraints.deadline_ms.has_value()) {
    writer->WriteI64(*constraints.deadline_ms);
  }
}

StatusOr<core::QueryConstraints> DecodeQueryConstraints(
    io::BinaryReader* reader) {
  core::QueryConstraints constraints;
  VZ_ASSIGN_OR_RETURN(uint8_t has_cameras, reader->ReadU8());
  if (has_cameras != 0) {
    std::vector<std::string> cameras;
    VZ_RETURN_IF_ERROR(DecodeStringList(reader, &cameras));
    constraints.cameras = std::move(cameras);
  }
  VZ_ASSIGN_OR_RETURN(uint8_t has_time, reader->ReadU8());
  if (has_time != 0) {
    VZ_ASSIGN_OR_RETURN(int64_t start_ms, reader->ReadI64());
    VZ_ASSIGN_OR_RETURN(int64_t end_ms, reader->ReadI64());
    constraints.time_range_ms = std::make_pair(start_ms, end_ms);
  }
  VZ_ASSIGN_OR_RETURN(uint8_t has_deadline, reader->ReadU8());
  if (has_deadline != 0) {
    VZ_ASSIGN_OR_RETURN(int64_t deadline_ms, reader->ReadI64());
    constraints.deadline_ms = deadline_ms;
  }
  return constraints;
}

void EncodeDirectQueryResult(io::BinaryWriter* writer,
                             const core::DirectQueryResult& result) {
  EncodeIdList(writer, result.candidate_svss);
  EncodeIdList(writer, result.matched_svss);
  writer->WriteF64(result.total_gpu_ms);
  writer->WriteF64(result.bottleneck_camera_gpu_ms);
  writer->WriteU64(result.per_camera_gpu_ms.size());
  for (const auto& [camera, gpu_ms] : result.per_camera_gpu_ms) {
    writer->WriteString(camera);
    writer->WriteF64(gpu_ms);
  }
  writer->WriteU64(result.frames_processed);
  writer->WriteU64(result.cameras_searched);
  writer->WriteU8(result.degraded ? 1 : 0);
  EncodeStringList(writer, result.excluded_cameras);
  writer->WriteU8(result.timed_out ? 1 : 0);
  writer->WriteF64(result.completed_fraction);
}

StatusOr<core::DirectQueryResult> DecodeDirectQueryResult(
    io::BinaryReader* reader) {
  core::DirectQueryResult result;
  VZ_RETURN_IF_ERROR(DecodeIdList(reader, &result.candidate_svss));
  VZ_RETURN_IF_ERROR(DecodeIdList(reader, &result.matched_svss));
  VZ_ASSIGN_OR_RETURN(result.total_gpu_ms, reader->ReadF64());
  VZ_ASSIGN_OR_RETURN(result.bottleneck_camera_gpu_ms, reader->ReadF64());
  VZ_ASSIGN_OR_RETURN(uint64_t num_cameras, reader->ReadU64());
  VZ_RETURN_IF_ERROR(
      CheckCount(*reader, num_cameras, sizeof(uint64_t) + sizeof(double)));
  result.per_camera_gpu_ms.reserve(num_cameras);
  for (uint64_t i = 0; i < num_cameras; ++i) {
    VZ_ASSIGN_OR_RETURN(std::string camera, reader->ReadString());
    VZ_ASSIGN_OR_RETURN(double gpu_ms, reader->ReadF64());
    result.per_camera_gpu_ms.emplace_back(std::move(camera), gpu_ms);
  }
  VZ_ASSIGN_OR_RETURN(uint64_t frames_processed, reader->ReadU64());
  result.frames_processed = static_cast<size_t>(frames_processed);
  VZ_ASSIGN_OR_RETURN(uint64_t cameras_searched, reader->ReadU64());
  result.cameras_searched = static_cast<size_t>(cameras_searched);
  VZ_ASSIGN_OR_RETURN(uint8_t degraded, reader->ReadU8());
  result.degraded = degraded != 0;
  VZ_RETURN_IF_ERROR(DecodeStringList(reader, &result.excluded_cameras));
  VZ_ASSIGN_OR_RETURN(uint8_t timed_out, reader->ReadU8());
  result.timed_out = timed_out != 0;
  VZ_ASSIGN_OR_RETURN(result.completed_fraction, reader->ReadF64());
  return result;
}

void EncodeClusteringQueryResult(io::BinaryWriter* writer,
                                 const core::ClusteringQueryResult& result) {
  EncodeIdList(writer, result.similar_svss);
  writer->WriteU64(result.cameras_contributing);
  writer->WriteU8(result.degraded ? 1 : 0);
  EncodeStringList(writer, result.excluded_cameras);
  writer->WriteU8(result.timed_out ? 1 : 0);
  writer->WriteF64(result.completed_fraction);
  writer->WriteU8(result.fast_omd_routed ? 1 : 0);
}

StatusOr<core::ClusteringQueryResult> DecodeClusteringQueryResult(
    io::BinaryReader* reader) {
  core::ClusteringQueryResult result;
  VZ_RETURN_IF_ERROR(DecodeIdList(reader, &result.similar_svss));
  VZ_ASSIGN_OR_RETURN(uint64_t cameras_contributing, reader->ReadU64());
  result.cameras_contributing = static_cast<size_t>(cameras_contributing);
  VZ_ASSIGN_OR_RETURN(uint8_t degraded, reader->ReadU8());
  result.degraded = degraded != 0;
  VZ_RETURN_IF_ERROR(DecodeStringList(reader, &result.excluded_cameras));
  VZ_ASSIGN_OR_RETURN(uint8_t timed_out, reader->ReadU8());
  result.timed_out = timed_out != 0;
  VZ_ASSIGN_OR_RETURN(result.completed_fraction, reader->ReadF64());
  VZ_ASSIGN_OR_RETURN(uint8_t fast_omd_routed, reader->ReadU8());
  result.fast_omd_routed = fast_omd_routed != 0;
  return result;
}

void EncodeSvsMetadata(io::BinaryWriter* writer,
                       const core::SvsMetadata& meta) {
  writer->WriteI64(meta.id);
  writer->WriteString(meta.camera);
  writer->WriteI64(meta.start_ms);
  writer->WriteI64(meta.end_ms);
  writer->WriteU64(meta.num_frames);
  writer->WriteU64(meta.encoded_bytes);
  writer->WriteU64(meta.access_count);
  writer->WriteI64(meta.last_access_ms);
  writer->WriteF64(meta.access_frequency);
}

StatusOr<core::SvsMetadata> DecodeSvsMetadata(io::BinaryReader* reader) {
  core::SvsMetadata meta;
  VZ_ASSIGN_OR_RETURN(meta.id, reader->ReadI64());
  VZ_ASSIGN_OR_RETURN(meta.camera, reader->ReadString());
  VZ_ASSIGN_OR_RETURN(meta.start_ms, reader->ReadI64());
  VZ_ASSIGN_OR_RETURN(meta.end_ms, reader->ReadI64());
  VZ_ASSIGN_OR_RETURN(uint64_t num_frames, reader->ReadU64());
  meta.num_frames = static_cast<size_t>(num_frames);
  VZ_ASSIGN_OR_RETURN(uint64_t encoded_bytes, reader->ReadU64());
  meta.encoded_bytes = static_cast<size_t>(encoded_bytes);
  VZ_ASSIGN_OR_RETURN(meta.access_count, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(meta.last_access_ms, reader->ReadI64());
  VZ_ASSIGN_OR_RETURN(meta.access_frequency, reader->ReadF64());
  return meta;
}

void EncodeQueryLoadStats(io::BinaryWriter* writer,
                          const core::QueryLoadStats& stats) {
  writer->WriteU64(stats.in_flight);
  writer->WriteU64(stats.waiting);
  writer->WriteU64(stats.admitted);
  writer->WriteU64(stats.shed);
  writer->WriteU64(stats.timed_out);
  writer->WriteU64(stats.fast_omd_routed);
  writer->WriteI64(stats.timeout_overshoot_ms_total);
  writer->WriteU64(stats.max_in_flight);
  writer->WriteU64(stats.max_queue);
  writer->WriteU64(stats.omd_failures);
}

StatusOr<core::QueryLoadStats> DecodeQueryLoadStats(
    io::BinaryReader* reader) {
  core::QueryLoadStats stats;
  VZ_ASSIGN_OR_RETURN(uint64_t in_flight, reader->ReadU64());
  stats.in_flight = static_cast<size_t>(in_flight);
  VZ_ASSIGN_OR_RETURN(uint64_t waiting, reader->ReadU64());
  stats.waiting = static_cast<size_t>(waiting);
  VZ_ASSIGN_OR_RETURN(stats.admitted, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.shed, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.timed_out, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.fast_omd_routed, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.timeout_overshoot_ms_total, reader->ReadI64());
  VZ_ASSIGN_OR_RETURN(uint64_t max_in_flight, reader->ReadU64());
  stats.max_in_flight = static_cast<size_t>(max_in_flight);
  VZ_ASSIGN_OR_RETURN(uint64_t max_queue, reader->ReadU64());
  stats.max_queue = static_cast<size_t>(max_queue);
  VZ_ASSIGN_OR_RETURN(stats.omd_failures, reader->ReadU64());
  return stats;
}

void EncodeMonitorStats(io::BinaryWriter* writer,
                        const MonitorStatsReply& stats) {
  writer->WriteU64(stats.ingest.frames_offered);
  writer->WriteU64(stats.ingest.keyframes_selected);
  writer->WriteU64(stats.ingest.features_extracted);
  writer->WriteU64(stats.ingest.svs_created);
  writer->WriteU64(stats.ingest.raw_feature_bytes);
  writer->WriteU64(stats.ingest.frames_rejected);
  writer->WriteU64(stats.ingest.out_of_order_dropped);
  writer->WriteU64(stats.ingest.duplicates_dropped);
  writer->WriteU64(stats.ingest.objects_quarantined);
  writer->WriteU64(stats.cache.hits);
  writer->WriteU64(stats.cache.misses);
  writer->WriteU64(stats.cache.insertions);
  writer->WriteU64(stats.cache.invalidations);
  writer->WriteU64(stats.cache.rejected_inserts);
  writer->WriteU64(stats.cache.entries);
  writer->WriteU64(stats.cache.capacity);
  writer->WriteU64(stats.svs_count);
  writer->WriteU64(stats.camera_count);
  writer->WriteI64(stats.now_ms);
  writer->WriteU64(stats.serving.connections_accepted);
  writer->WriteU64(stats.serving.connections_shed);
  writer->WriteU64(stats.serving.connections_evicted_idle);
  writer->WriteU64(stats.serving.connections_evicted_slow);
  writer->WriteU64(stats.serving.duplicates_replayed);
  writer->WriteU64(stats.serving.pings_served);
  writer->WriteU64(stats.serving.sessions_active);
  writer->WriteU64(stats.serving.sessions_evicted);
  writer->WriteU32(static_cast<uint32_t>(stats.serving.role));
  writer->WriteU64(stats.serving.wal_appends);
  writer->WriteU64(stats.serving.wal_fsyncs);
  writer->WriteU64(stats.serving.wal_replayed_records);
  writer->WriteU64(stats.serving.wal_salvaged_bytes);
  writer->WriteU64(stats.serving.wal_checkpoints);
  writer->WriteU64(stats.serving.wal_last_lsn);
  writer->WriteU64(stats.serving.wal_durable_lsn);
  writer->WriteU64(stats.serving.replication_lag_records);
  writer->WriteU64(stats.serving.replication_reseeds);
  writer->WriteU64(stats.serving.connections.size());
  for (const ConnectionInfo& conn : stats.serving.connections) {
    writer->WriteU64(conn.id);
    writer->WriteI64(conn.age_ms);
    writer->WriteI64(conn.idle_ms);
    writer->WriteU64(conn.bytes_in);
    writer->WriteU64(conn.bytes_out);
    writer->WriteU64(conn.rpcs);
  }
  writer->WriteU64(stats.serving.shards.size());
  for (const ShardHealthInfo& shard : stats.serving.shards) {
    writer->WriteString(shard.host);
    writer->WriteU32(shard.port);
    writer->WriteU32(static_cast<uint32_t>(shard.state));
    writer->WriteU64(shard.consecutive_failures);
    writer->WriteI64(shard.rep_staleness_ms);
    writer->WriteU64(shard.rep_entries);
    writer->WriteU64(shard.cameras);
  }
  // v5 subscription counters ride at the very end so a v4-era decoder that
  // stops after the shard table still parses everything it knows about.
  writer->WriteU64(stats.serving.subscriptions_active);
  writer->WriteU64(stats.serving.subscriptions_total);
  writer->WriteU64(stats.serving.pushes_sent);
  writer->WriteU64(stats.serving.push_drops);
  writer->WriteU64(stats.serving.push_gaps_sent);
  writer->WriteU64(stats.serving.ingest_batches);
  // Disk-health tail: same append-only convention, so decoders that stop
  // after the v5 counters still parse their prefix.
  writer->WriteU64(stats.serving.disk_io_errors);
  writer->WriteU64(stats.serving.disk_fsync_failures);
  writer->WriteU64(stats.serving.checkpoints_quarantined);
  writer->WriteU8(stats.serving.disk_full ? 1 : 0);
  writer->WriteU8(stats.serving.read_only ? 1 : 0);
}

StatusOr<MonitorStatsReply> DecodeMonitorStats(io::BinaryReader* reader) {
  MonitorStatsReply stats;
  VZ_ASSIGN_OR_RETURN(stats.ingest.frames_offered, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.ingest.keyframes_selected, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.ingest.features_extracted, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.ingest.svs_created, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(uint64_t raw_feature_bytes, reader->ReadU64());
  stats.ingest.raw_feature_bytes = static_cast<size_t>(raw_feature_bytes);
  VZ_ASSIGN_OR_RETURN(stats.ingest.frames_rejected, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.ingest.out_of_order_dropped, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.ingest.duplicates_dropped, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.ingest.objects_quarantined, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.cache.hits, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.cache.misses, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.cache.insertions, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.cache.invalidations, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.cache.rejected_inserts, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(uint64_t entries, reader->ReadU64());
  stats.cache.entries = static_cast<size_t>(entries);
  VZ_ASSIGN_OR_RETURN(uint64_t capacity, reader->ReadU64());
  stats.cache.capacity = static_cast<size_t>(capacity);
  VZ_ASSIGN_OR_RETURN(stats.svs_count, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.camera_count, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.now_ms, reader->ReadI64());
  VZ_ASSIGN_OR_RETURN(stats.serving.connections_accepted, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.serving.connections_shed, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.serving.connections_evicted_idle,
                      reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.serving.connections_evicted_slow,
                      reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.serving.duplicates_replayed, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.serving.pings_served, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.serving.sessions_active, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.serving.sessions_evicted, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(uint32_t role, reader->ReadU32());
  if (role > static_cast<uint32_t>(ServerRole::kPromoted)) {
    return Status::InvalidArgument("invalid server role value");
  }
  stats.serving.role = static_cast<ServerRole>(role);
  VZ_ASSIGN_OR_RETURN(stats.serving.wal_appends, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.serving.wal_fsyncs, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.serving.wal_replayed_records, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.serving.wal_salvaged_bytes, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.serving.wal_checkpoints, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.serving.wal_last_lsn, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.serving.wal_durable_lsn, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.serving.replication_lag_records,
                      reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(stats.serving.replication_reseeds, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(uint64_t num_connections, reader->ReadU64());
  // Six fixed-width fields per registry entry.
  VZ_RETURN_IF_ERROR(CheckCount(*reader, num_connections, 6 * sizeof(uint64_t)));
  stats.serving.connections.reserve(num_connections);
  for (uint64_t i = 0; i < num_connections; ++i) {
    ConnectionInfo conn;
    VZ_ASSIGN_OR_RETURN(conn.id, reader->ReadU64());
    VZ_ASSIGN_OR_RETURN(conn.age_ms, reader->ReadI64());
    VZ_ASSIGN_OR_RETURN(conn.idle_ms, reader->ReadI64());
    VZ_ASSIGN_OR_RETURN(conn.bytes_in, reader->ReadU64());
    VZ_ASSIGN_OR_RETURN(conn.bytes_out, reader->ReadU64());
    VZ_ASSIGN_OR_RETURN(conn.rpcs, reader->ReadU64());
    stats.serving.connections.push_back(conn);
  }
  VZ_ASSIGN_OR_RETURN(uint64_t num_shards, reader->ReadU64());
  // Host string prefix, two u32s and four u64s per shard row.
  VZ_RETURN_IF_ERROR(CheckCount(*reader, num_shards,
                                5 * sizeof(uint64_t) + 2 * sizeof(uint32_t)));
  stats.serving.shards.reserve(num_shards);
  for (uint64_t i = 0; i < num_shards; ++i) {
    ShardHealthInfo shard;
    VZ_ASSIGN_OR_RETURN(shard.host, reader->ReadString());
    VZ_ASSIGN_OR_RETURN(shard.port, reader->ReadU32());
    VZ_ASSIGN_OR_RETURN(uint32_t state, reader->ReadU32());
    if (state > static_cast<uint32_t>(ShardState::kUnreachable)) {
      return Status::InvalidArgument("invalid shard state value");
    }
    shard.state = static_cast<ShardState>(state);
    VZ_ASSIGN_OR_RETURN(shard.consecutive_failures, reader->ReadU64());
    VZ_ASSIGN_OR_RETURN(shard.rep_staleness_ms, reader->ReadI64());
    VZ_ASSIGN_OR_RETURN(shard.rep_entries, reader->ReadU64());
    VZ_ASSIGN_OR_RETURN(shard.cameras, reader->ReadU64());
    stats.serving.shards.push_back(std::move(shard));
  }
  // v5 tail: absent when the sender predates the subscription counters.
  if (reader->remaining() > 0) {
    VZ_ASSIGN_OR_RETURN(stats.serving.subscriptions_active, reader->ReadU64());
    VZ_ASSIGN_OR_RETURN(stats.serving.subscriptions_total, reader->ReadU64());
    VZ_ASSIGN_OR_RETURN(stats.serving.pushes_sent, reader->ReadU64());
    VZ_ASSIGN_OR_RETURN(stats.serving.push_drops, reader->ReadU64());
    VZ_ASSIGN_OR_RETURN(stats.serving.push_gaps_sent, reader->ReadU64());
    VZ_ASSIGN_OR_RETURN(stats.serving.ingest_batches, reader->ReadU64());
  }
  // Disk-health tail: absent when the sender predates the storage-fault
  // model.
  if (reader->remaining() > 0) {
    VZ_ASSIGN_OR_RETURN(stats.serving.disk_io_errors, reader->ReadU64());
    VZ_ASSIGN_OR_RETURN(stats.serving.disk_fsync_failures, reader->ReadU64());
    VZ_ASSIGN_OR_RETURN(stats.serving.checkpoints_quarantined,
                        reader->ReadU64());
    VZ_ASSIGN_OR_RETURN(uint8_t disk_full, reader->ReadU8());
    stats.serving.disk_full = disk_full != 0;
    VZ_ASSIGN_OR_RETURN(uint8_t read_only, reader->ReadU8());
    stats.serving.read_only = read_only != 0;
  }
  return stats;
}

void EncodeCameraHealthReport(io::BinaryWriter* writer,
                              const std::vector<CameraHealthEntry>& report) {
  writer->WriteU64(report.size());
  for (const CameraHealthEntry& entry : report) {
    writer->WriteString(entry.camera);
    writer->WriteU8(static_cast<uint8_t>(entry.health));
  }
}

StatusOr<std::vector<CameraHealthEntry>> DecodeCameraHealthReport(
    io::BinaryReader* reader) {
  VZ_ASSIGN_OR_RETURN(uint64_t count, reader->ReadU64());
  VZ_RETURN_IF_ERROR(CheckCount(*reader, count, sizeof(uint64_t) + 1));
  std::vector<CameraHealthEntry> report;
  report.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    CameraHealthEntry entry;
    VZ_ASSIGN_OR_RETURN(entry.camera, reader->ReadString());
    VZ_ASSIGN_OR_RETURN(uint8_t health, reader->ReadU8());
    if (health > static_cast<uint8_t>(core::CameraHealth::kStalled)) {
      return Status::InvalidArgument("invalid camera health value");
    }
    entry.health = static_cast<core::CameraHealth>(health);
    report.push_back(std::move(entry));
  }
  return report;
}

void EncodeWalShipRequest(io::BinaryWriter* writer,
                          const WalShipRequest& request) {
  writer->WriteU64(request.from_lsn);
  writer->WriteU32(request.max_records);
  writer->WriteU32(request.wait_ms);
  writer->WriteU64(request.epoch);
}

StatusOr<WalShipRequest> DecodeWalShipRequest(io::BinaryReader* reader) {
  WalShipRequest request;
  VZ_ASSIGN_OR_RETURN(request.from_lsn, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(request.max_records, reader->ReadU32());
  VZ_ASSIGN_OR_RETURN(request.wait_ms, reader->ReadU32());
  VZ_ASSIGN_OR_RETURN(request.epoch, reader->ReadU64());
  return request;
}

void EncodeWalShipReply(io::BinaryWriter* writer, const WalShipReply& reply) {
  writer->WriteU64(reply.durable_lsn);
  writer->WriteU64(reply.epoch);
  writer->WriteU64(reply.records.size());
  for (const io::WalRecord& record : reply.records) {
    writer->WriteU64(record.lsn);
    writer->WriteU64(record.session_id);
    writer->WriteU64(record.sequence);
    writer->WriteU32(record.op);
    writer->WriteU64(record.epoch);
    writer->WriteLengthPrefixedBytes(record.payload);
  }
}

StatusOr<WalShipReply> DecodeWalShipReply(io::BinaryReader* reader) {
  WalShipReply reply;
  VZ_ASSIGN_OR_RETURN(reply.durable_lsn, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(reply.epoch, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(uint64_t count, reader->ReadU64());
  // Four u64s, a u32 op, and the payload's own u64 length prefix.
  VZ_RETURN_IF_ERROR(
      CheckCount(*reader, count, 5 * sizeof(uint64_t) + sizeof(uint32_t)));
  reply.records.reserve(count);
  uint64_t previous_lsn = 0;
  for (uint64_t i = 0; i < count; ++i) {
    io::WalRecord record;
    VZ_ASSIGN_OR_RETURN(record.lsn, reader->ReadU64());
    VZ_ASSIGN_OR_RETURN(record.session_id, reader->ReadU64());
    VZ_ASSIGN_OR_RETURN(record.sequence, reader->ReadU64());
    VZ_ASSIGN_OR_RETURN(record.op, reader->ReadU32());
    VZ_ASSIGN_OR_RETURN(record.epoch, reader->ReadU64());
    VZ_ASSIGN_OR_RETURN(record.payload, reader->ReadLengthPrefixedBytes());
    // The shipped batch must be a dense ascending LSN run — a gap here
    // would silently drop records on the standby.
    if (i > 0 && record.lsn != previous_lsn + 1) {
      return Status::InvalidArgument("WAL ship batch has an LSN gap");
    }
    previous_lsn = record.lsn;
    reply.records.push_back(std::move(record));
  }
  return reply;
}

void EncodeWeightedCenter(io::BinaryWriter* writer,
                          const core::WeightedCenter& center) {
  EncodeFeatureVector(writer, center.center);
  writer->WriteF64(center.weight);
  writer->WriteF64(center.boundary);
  writer->WriteF64(center.mean_member_distance);
  writer->WriteI64(center.last_hit_ms);
}

StatusOr<core::WeightedCenter> DecodeWeightedCenter(io::BinaryReader* reader) {
  core::WeightedCenter center;
  VZ_ASSIGN_OR_RETURN(center.center, DecodeFeatureVector(reader));
  VZ_ASSIGN_OR_RETURN(center.weight, reader->ReadF64());
  VZ_ASSIGN_OR_RETURN(center.boundary, reader->ReadF64());
  VZ_ASSIGN_OR_RETURN(center.mean_member_distance, reader->ReadF64());
  VZ_ASSIGN_OR_RETURN(center.last_hit_ms, reader->ReadI64());
  return center;
}

void EncodeRepresentative(io::BinaryWriter* writer,
                          const core::Representative& rep) {
  writer->WriteU64(rep.centers().size());
  for (const core::WeightedCenter& center : rep.centers()) {
    EncodeWeightedCenter(writer, center);
  }
}

StatusOr<core::Representative> DecodeRepresentative(io::BinaryReader* reader) {
  VZ_ASSIGN_OR_RETURN(uint64_t count, reader->ReadU64());
  // An empty center still costs its vector length prefix plus three f64s
  // and an i64.
  VZ_RETURN_IF_ERROR(CheckCount(*reader, count, 5 * sizeof(uint64_t)));
  std::vector<core::WeightedCenter> centers;
  centers.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    VZ_ASSIGN_OR_RETURN(core::WeightedCenter center,
                        DecodeWeightedCenter(reader));
    centers.push_back(std::move(center));
  }
  return core::Representative(std::move(centers));
}

void EncodeRepEntry(io::BinaryWriter* writer,
                    const core::InterCameraIndex::RepEntry& entry) {
  writer->WriteString(entry.camera);
  writer->WriteU64(entry.intra_cluster_index);
  EncodeFeatureMap(writer, entry.map);
  EncodeRepresentative(writer, entry.rep);
}

StatusOr<core::InterCameraIndex::RepEntry> DecodeRepEntry(
    io::BinaryReader* reader) {
  core::InterCameraIndex::RepEntry entry;
  VZ_ASSIGN_OR_RETURN(entry.camera, reader->ReadString());
  VZ_ASSIGN_OR_RETURN(uint64_t intra_cluster_index, reader->ReadU64());
  entry.intra_cluster_index = static_cast<size_t>(intra_cluster_index);
  VZ_ASSIGN_OR_RETURN(entry.map, DecodeFeatureMap(reader));
  VZ_ASSIGN_OR_RETURN(entry.rep, DecodeRepresentative(reader));
  return entry;
}

void EncodeRepSyncRequest(io::BinaryWriter* writer,
                          const RepSyncRequest& request) {
  writer->WriteU64(request.since_version);
}

StatusOr<RepSyncRequest> DecodeRepSyncRequest(io::BinaryReader* reader) {
  RepSyncRequest request;
  VZ_ASSIGN_OR_RETURN(request.since_version, reader->ReadU64());
  return request;
}

void EncodeRepSyncReply(io::BinaryWriter* writer, const RepSyncReply& reply) {
  writer->WriteU64(reply.version);
  writer->WriteU8(reply.unchanged ? 1 : 0);
  writer->WriteU64(reply.entries.size());
  for (const core::InterCameraIndex::RepEntry& entry : reply.entries) {
    EncodeRepEntry(writer, entry);
  }
}

StatusOr<RepSyncReply> DecodeRepSyncReply(io::BinaryReader* reader) {
  RepSyncReply reply;
  VZ_ASSIGN_OR_RETURN(reply.version, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(uint8_t unchanged, reader->ReadU8());
  reply.unchanged = unchanged != 0;
  VZ_ASSIGN_OR_RETURN(uint64_t count, reader->ReadU64());
  // Camera string prefix + cluster index + map count + center count.
  VZ_RETURN_IF_ERROR(CheckCount(*reader, count, 4 * sizeof(uint64_t)));
  reply.entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    VZ_ASSIGN_OR_RETURN(core::InterCameraIndex::RepEntry entry,
                        DecodeRepEntry(reader));
    reply.entries.push_back(std::move(entry));
  }
  if (reply.unchanged && !reply.entries.empty()) {
    return Status::InvalidArgument("unchanged RepSync reply carries entries");
  }
  return reply;
}

void EncodeCheckpointFetchReply(io::BinaryWriter* writer,
                                const CheckpointFetchReply& reply) {
  writer->WriteU64(reply.lsn);
  writer->WriteU64(reply.epoch);
  writer->WriteLengthPrefixedBytes(reply.snapshot_bytes);
  writer->WriteLengthPrefixedBytes(reply.meta_bytes);
}

StatusOr<CheckpointFetchReply> DecodeCheckpointFetchReply(
    io::BinaryReader* reader) {
  CheckpointFetchReply reply;
  VZ_ASSIGN_OR_RETURN(reply.lsn, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(reply.epoch, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(reply.snapshot_bytes, reader->ReadLengthPrefixedBytes());
  VZ_ASSIGN_OR_RETURN(reply.meta_bytes, reader->ReadLengthPrefixedBytes());
  return reply;
}

void EncodeSubscribeRequest(io::BinaryWriter* writer,
                            const SubscribeRequest& request) {
  EncodeFeatureVector(writer, request.query);
  writer->WriteF64(request.threshold);
  writer->WriteU8(request.has_camera_filter ? 1 : 0);
  if (request.has_camera_filter) {
    EncodeStringList(writer, request.cameras);
  }
  writer->WriteU8(request.want_matches ? 1 : 0);
  writer->WriteU8(request.want_stats ? 1 : 0);
}

StatusOr<SubscribeRequest> DecodeSubscribeRequest(io::BinaryReader* reader) {
  SubscribeRequest request;
  VZ_ASSIGN_OR_RETURN(request.query, DecodeFeatureVector(reader));
  VZ_ASSIGN_OR_RETURN(request.threshold, reader->ReadF64());
  VZ_ASSIGN_OR_RETURN(uint8_t has_filter, reader->ReadU8());
  request.has_camera_filter = has_filter != 0;
  if (request.has_camera_filter) {
    VZ_RETURN_IF_ERROR(DecodeStringList(reader, &request.cameras));
  }
  VZ_ASSIGN_OR_RETURN(uint8_t want_matches, reader->ReadU8());
  request.want_matches = want_matches != 0;
  VZ_ASSIGN_OR_RETURN(uint8_t want_stats, reader->ReadU8());
  request.want_stats = want_stats != 0;
  if (!request.want_matches && !request.want_stats) {
    return Status::InvalidArgument("subscription wants neither matches nor "
                                   "stats");
  }
  if (request.want_matches && request.query.dim() == 0) {
    return Status::InvalidArgument("match subscription with an empty query");
  }
  return request;
}

void EncodePushEvent(io::BinaryWriter* writer, const PushEvent& event) {
  writer->WriteU64(event.subscription_id);
  writer->WriteU64(event.sequence);
  writer->WriteU32(static_cast<uint32_t>(event.kind));
  switch (event.kind) {
    case PushKind::kMatch:
      writer->WriteI64(event.svs_id);
      writer->WriteString(event.camera);
      writer->WriteI64(event.start_ms);
      writer->WriteI64(event.end_ms);
      writer->WriteF64(event.distance);
      break;
    case PushKind::kIndexUpdate:
      writer->WriteU64(event.index_version);
      break;
    case PushKind::kGap:
      writer->WriteU64(event.dropped);
      break;
  }
}

StatusOr<PushEvent> DecodePushEvent(io::BinaryReader* reader) {
  PushEvent event;
  VZ_ASSIGN_OR_RETURN(event.subscription_id, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(event.sequence, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(uint32_t kind, reader->ReadU32());
  if (kind > static_cast<uint32_t>(PushKind::kGap)) {
    return Status::InvalidArgument("invalid push event kind");
  }
  event.kind = static_cast<PushKind>(kind);
  switch (event.kind) {
    case PushKind::kMatch: {
      VZ_ASSIGN_OR_RETURN(event.svs_id, reader->ReadI64());
      VZ_ASSIGN_OR_RETURN(event.camera, reader->ReadString());
      VZ_ASSIGN_OR_RETURN(event.start_ms, reader->ReadI64());
      VZ_ASSIGN_OR_RETURN(event.end_ms, reader->ReadI64());
      VZ_ASSIGN_OR_RETURN(event.distance, reader->ReadF64());
      break;
    }
    case PushKind::kIndexUpdate: {
      VZ_ASSIGN_OR_RETURN(event.index_version, reader->ReadU64());
      break;
    }
    case PushKind::kGap: {
      VZ_ASSIGN_OR_RETURN(event.dropped, reader->ReadU64());
      if (event.dropped == 0) {
        return Status::InvalidArgument("gap marker with zero dropped events");
      }
      break;
    }
  }
  return event;
}

void EncodeIngestBatchReply(io::BinaryWriter* writer,
                            const IngestBatchReply& reply) {
  writer->WriteU64(reply.accepted);
  writer->WriteU64(reply.rejected);
}

StatusOr<IngestBatchReply> DecodeIngestBatchReply(io::BinaryReader* reader) {
  IngestBatchReply reply;
  VZ_ASSIGN_OR_RETURN(reply.accepted, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(reply.rejected, reader->ReadU64());
  return reply;
}

void EncodeAdminTuneRequest(io::BinaryWriter* writer,
                            const AdminTuneRequest& request) {
  writer->WriteU8(request.index_mode.has_value() ? 1 : 0);
  if (request.index_mode) writer->WriteU32(*request.index_mode);
  writer->WriteU8(request.boundary_scale.has_value() ? 1 : 0);
  if (request.boundary_scale) writer->WriteF64(*request.boundary_scale);
  writer->WriteU8(request.omd_alpha.has_value() ? 1 : 0);
  if (request.omd_alpha) writer->WriteF64(*request.omd_alpha);
  writer->WriteU8(request.keyframe_selection.has_value() ? 1 : 0);
  if (request.keyframe_selection) {
    writer->WriteU8(*request.keyframe_selection ? 1 : 0);
  }
  writer->WriteU8(request.inter_group_count.has_value() ? 1 : 0);
  if (request.inter_group_count) writer->WriteU64(*request.inter_group_count);
  writer->WriteU8(request.intra_cluster_count.has_value() ? 1 : 0);
  if (request.intra_cluster_count) {
    writer->WriteU64(*request.intra_cluster_count);
  }
}

StatusOr<AdminTuneRequest> DecodeAdminTuneRequest(io::BinaryReader* reader) {
  AdminTuneRequest request;
  VZ_ASSIGN_OR_RETURN(uint8_t has_mode, reader->ReadU8());
  if (has_mode != 0) {
    VZ_ASSIGN_OR_RETURN(uint32_t mode, reader->ReadU32());
    request.index_mode = mode;
  }
  VZ_ASSIGN_OR_RETURN(uint8_t has_scale, reader->ReadU8());
  if (has_scale != 0) {
    VZ_ASSIGN_OR_RETURN(double scale, reader->ReadF64());
    request.boundary_scale = scale;
  }
  VZ_ASSIGN_OR_RETURN(uint8_t has_alpha, reader->ReadU8());
  if (has_alpha != 0) {
    VZ_ASSIGN_OR_RETURN(double alpha, reader->ReadF64());
    request.omd_alpha = alpha;
  }
  VZ_ASSIGN_OR_RETURN(uint8_t has_keyframe, reader->ReadU8());
  if (has_keyframe != 0) {
    VZ_ASSIGN_OR_RETURN(uint8_t keyframe, reader->ReadU8());
    request.keyframe_selection = keyframe != 0;
  }
  VZ_ASSIGN_OR_RETURN(uint8_t has_inter, reader->ReadU8());
  if (has_inter != 0) {
    VZ_ASSIGN_OR_RETURN(uint64_t inter, reader->ReadU64());
    request.inter_group_count = inter;
  }
  VZ_ASSIGN_OR_RETURN(uint8_t has_intra, reader->ReadU8());
  if (has_intra != 0) {
    VZ_ASSIGN_OR_RETURN(uint64_t intra, reader->ReadU64());
    request.intra_cluster_count = intra;
  }
  return request;
}

void EncodeAdminTuneReply(io::BinaryWriter* writer,
                          const AdminTuneReply& reply) {
  writer->WriteU32(reply.index_mode);
  writer->WriteF64(reply.boundary_scale);
  writer->WriteF64(reply.omd_alpha);
  writer->WriteU8(reply.keyframe_selection ? 1 : 0);
  writer->WriteU64(reply.inter_group_count);
  writer->WriteU64(reply.intra_cluster_count);
}

StatusOr<AdminTuneReply> DecodeAdminTuneReply(io::BinaryReader* reader) {
  AdminTuneReply reply;
  VZ_ASSIGN_OR_RETURN(reply.index_mode, reader->ReadU32());
  VZ_ASSIGN_OR_RETURN(reply.boundary_scale, reader->ReadF64());
  VZ_ASSIGN_OR_RETURN(reply.omd_alpha, reader->ReadF64());
  VZ_ASSIGN_OR_RETURN(uint8_t keyframe, reader->ReadU8());
  reply.keyframe_selection = keyframe != 0;
  VZ_ASSIGN_OR_RETURN(reply.inter_group_count, reader->ReadU64());
  VZ_ASSIGN_OR_RETURN(reply.intra_cluster_count, reader->ReadU64());
  return reply;
}

}  // namespace vz::net
