#include "net/wire.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/crc32.h"
#include "common/socket.h"

namespace vz::net {

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

void EncodeFrameObservation(io::BinaryWriter* writer,
                            const core::FrameObservation& frame) {
  io::Encode(writer, frame);
}

}  // namespace vz::net
