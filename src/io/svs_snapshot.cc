#include "io/svs_snapshot.h"

#include <cstring>
#include <utility>

#include "common/crc32.h"
#include "io/binary_format.h"

namespace vz::io {

namespace {

/// One SVS record payload, in file order. Saving points the members at a
/// stored SVS's fields (its feature map is not copied); loading points them
/// at locals that then become a new SVS.
struct SvsRecord {
  std::string& camera;
  int64_t& start_ms;
  int64_t& end_ms;
  FeatureMap& features;
  core::Representative& representative;
  std::vector<int64_t>& frame_ids;
  uint64_t& encoded_bytes;
  uint64_t& access_count;
  int64_t& last_access_ms;
};

template <typename A>
Status Visit(A& ar, SvsRecord& record) {
  return Fields(ar, record.camera, record.start_ms, record.end_ms,
                record.features, record.representative, record.frame_ids,
                record.encoded_bytes, record.access_count,
                record.last_access_ms);
}

void WriteSvsRecord(BinaryWriter* writer, const core::Svs& svs) {
  int64_t start_ms = svs.start_ms();
  int64_t end_ms = svs.end_ms();
  uint64_t encoded_bytes = svs.encoded_bytes();
  uint64_t access_count = svs.access_count();
  int64_t last_access_ms = svs.last_access_ms();
  SvsRecord record{const_cast<std::string&>(svs.camera()),
                   start_ms,
                   end_ms,
                   const_cast<FeatureMap&>(svs.features()),
                   const_cast<core::Representative&>(svs.representative()),
                   const_cast<std::vector<int64_t>&>(svs.frame_ids()),
                   encoded_bytes,
                   access_count,
                   last_access_ms};
  WriteArchive ar(writer);
  (void)Visit(ar, record);  // writing never fails
}

// Decodes one whole record payload and appends the SVS to `store`.
Status ReadSvsRecord(BinaryReader* reader, core::SvsStore* store) {
  std::string camera;
  int64_t start_ms = 0;
  int64_t end_ms = 0;
  FeatureMap features;
  core::Representative rep;
  std::vector<int64_t> frames;
  uint64_t bytes = 0;
  uint64_t accesses = 0;
  int64_t last_access = 0;
  SvsRecord record{camera, start_ms, end_ms,   features,   rep,
                   frames, bytes,    accesses, last_access};
  ReadArchive ar(reader);
  VZ_RETURN_IF_ERROR(Visit(ar, record));
  if (!reader->AtEnd()) {
    return Status::InvalidArgument("trailing bytes in record");
  }
  const core::SvsId id =
      store->Create(std::move(camera), start_ms, end_ms, std::move(features));
  VZ_ASSIGN_OR_RETURN(core::Svs * svs, store->GetMutable(id));
  svs->set_representative(std::move(rep));
  svs->set_frame_ids(std::move(frames));
  svs->set_encoded_bytes(bytes);
  svs->RestoreAccessStats(accesses, last_access);
  return Status::OK();
}

// Copies every SVS of `src` onto the end of `dst` (ids re-assigned densely).
Status AppendStore(const core::SvsStore& src, core::SvsStore* dst) {
  for (core::SvsId id : src.AllIds()) {
    VZ_ASSIGN_OR_RETURN(const core::Svs* svs, src.Get(id));
    const core::SvsId new_id = dst->Create(svs->camera(), svs->start_ms(),
                                           svs->end_ms(), svs->features());
    VZ_ASSIGN_OR_RETURN(core::Svs * copy, dst->GetMutable(new_id));
    copy->set_representative(svs->representative());
    copy->set_frame_ids(svs->frame_ids());
    copy->set_encoded_bytes(svs->encoded_bytes());
    copy->RestoreAccessStats(svs->access_count(), svs->last_access_ms());
  }
  return Status::OK();
}

// Decodes the body (length-prefixed, CRC-framed records + file checksum).
Status LoadBody(BinaryReader* reader, core::SvsStore* store,
                  const SnapshotLoadOptions& options,
                  SnapshotLoadReport* report) {
  const std::string& data = reader->data();
  // File-level checksum first: the final u32 covers every preceding byte, so
  // any bit flip — in a payload, a length field or the header — is caught
  // before records are trusted. A torn file (missing or short footer) fails
  // here too; salvage mode skips straight to per-record recovery instead.
  bool file_intact = false;
  if (data.size() >= sizeof(uint32_t)) {
    const size_t body = data.size() - sizeof(uint32_t);
    uint32_t stored = 0;
    std::memcpy(&stored, data.data() + body, sizeof(stored));
    file_intact = Crc32(data.data(), body) == stored;
  }
  if (!file_intact && !options.salvage) {
    return Status::InvalidArgument("snapshot file checksum mismatch");
  }
  VZ_ASSIGN_OR_RETURN(uint64_t count, reader->ReadU64());
  report->records_expected = count;
  for (uint64_t i = 0; i < count; ++i) {
    const auto record = [&]() -> Status {
      VZ_ASSIGN_OR_RETURN(uint64_t length, reader->ReadU64());
      if (length > reader->remaining()) {
        return Status::OutOfRange("truncated record");
      }
      const size_t payload_start = reader->position();
      std::string payload = data.substr(payload_start, length);
      // Advance past the payload, then check its frame CRC.
      BinaryReader payload_reader(std::move(payload));
      VZ_RETURN_IF_ERROR(reader->Skip(length));
      VZ_ASSIGN_OR_RETURN(uint32_t stored_crc, reader->ReadU32());
      if (Crc32(payload_reader.data()) != stored_crc) {
        return Status::InvalidArgument("record checksum mismatch");
      }
      return ReadSvsRecord(&payload_reader, store);
    }();
    if (!record.ok()) {
      if (!options.salvage) return record;
      report->salvaged = true;
      return Status::OK();
    }
    ++report->records_loaded;
  }
  if (options.salvage && !file_intact) report->salvaged = true;
  if (!options.salvage) {
    VZ_RETURN_IF_ERROR(reader->Skip(sizeof(uint32_t)));  // footer
    if (!reader->AtEnd()) {
      return Status::InvalidArgument("trailing bytes after snapshot");
    }
  }
  return Status::OK();
}

}  // namespace

Status SaveSvsStore(const core::SvsStore& store, const std::string& path,
                    Env* env) {
  BinaryWriter writer;
  writer.WriteU32(kSnapshotMagic);
  writer.WriteU32(kSnapshotVersion);
  const auto ids = store.AllIds();
  writer.WriteU64(ids.size());
  for (core::SvsId id : ids) {
    VZ_ASSIGN_OR_RETURN(const core::Svs* svs, store.Get(id));
    BinaryWriter record;
    WriteSvsRecord(&record, *svs);
    writer.WriteU64(record.buffer().size());
    writer.WriteBytes(record.buffer());
    writer.WriteU32(Crc32(record.buffer()));
  }
  writer.WriteU32(Crc32(writer.buffer()));
  return writer.Flush(path, env);
}

Status LoadSvsStore(const std::string& path, core::SvsStore* store,
                    const SnapshotLoadOptions& options,
                    SnapshotLoadReport* report, Env* env) {
  if (store == nullptr) {
    return Status::InvalidArgument("LoadSvsStore requires a store");
  }
  SnapshotLoadReport local_report;
  if (report == nullptr) report = &local_report;
  *report = SnapshotLoadReport();

  VZ_ASSIGN_OR_RETURN(BinaryReader reader, BinaryReader::FromFile(path, env));
  VZ_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a Video-zilla snapshot: " + path);
  }
  VZ_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  report->version = version;

  // Decode into a scratch store so a failure at any point — truncation,
  // checksum mismatch, malformed record — leaves the caller's store exactly
  // as it was. Only a fully successful (or deliberately salvaged) decode is
  // appended.
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(version));
  }
  core::SvsStore scratch;
  VZ_RETURN_IF_ERROR(LoadBody(&reader, &scratch, options, report));
  return AppendStore(scratch, store);
}

}  // namespace vz::io
