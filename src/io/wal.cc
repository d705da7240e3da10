#include "io/wal.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <optional>

#include "common/crc32.h"
#include "io/binary_format.h"
#include "io/env.h"

namespace vz::io {

namespace {

std::string SegmentPath(const std::string& dir, uint64_t seq) {
  char name[64];
  std::snprintf(name, sizeof(name), "wal-%010" PRIu64 ".vzwal", seq);
  return dir + "/" + name;
}

/// Parses `wal-<seq>.vzwal`; nullopt for anything else in the directory.
std::optional<uint64_t> ParseSegmentName(const std::string& name) {
  if (name.size() != 4 + 10 + 6 || name.rfind("wal-", 0) != 0 ||
      name.substr(14) != ".vzwal") {
    return std::nullopt;
  }
  uint64_t seq = 0;
  for (size_t i = 4; i < 14; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return seq;
}

constexpr size_t kSegmentHeaderBytes =
    2 * sizeof(uint32_t) + sizeof(uint64_t) + sizeof(uint32_t);

std::string EncodeSegmentHeader(uint64_t start_lsn) {
  BinaryWriter writer;
  writer.WriteU32(kWalMagic);
  writer.WriteU32(kWalFormatVersion);
  writer.WriteU64(start_lsn);
  writer.WriteU32(Crc32(writer.buffer()));
  return writer.buffer();
}

/// Frames one record: u32 len | payload | u32 crc32(payload), the payload
/// being `record` stamped with `lsn`.
std::string EncodeRecord(const WalRecord& record, uint64_t lsn) {
  WalRecord stamped = record;
  stamped.lsn = lsn;
  BinaryWriter framed;
  framed.WriteU32(static_cast<uint32_t>(EncodedSize(stamped)));
  Encode(&framed, stamped);
  framed.WriteU32(
      Crc32(std::string_view(framed.buffer()).substr(sizeof(uint32_t))));
  return framed.buffer();
}

/// Decodes the record at the reader's position. `expected_lsn` enforces the
/// dense LSN chain; any violation (bounds, CRC, chain break) returns an
/// error — which during a salvage scan means "the valid prefix ends here".
/// A length below the smallest possible record is structurally impossible —
/// in particular a zeroed tail (len 0) can never masquerade as a record.
StatusOr<WalRecord> DecodeRecord(BinaryReader* reader,
                                 uint64_t expected_lsn) {
  VZ_ASSIGN_OR_RETURN(uint32_t len, reader->ReadU32());
  if (len < MinEncodedSize<WalRecord>() || len > kWalMaxPayloadBytes) {
    return Status::DataLoss("implausible WAL record length");
  }
  if (reader->remaining() < len + sizeof(uint32_t)) {
    return Status::DataLoss("torn WAL record");
  }
  const std::string_view payload(reader->data().data() + reader->position(),
                                 len);
  VZ_RETURN_IF_ERROR(reader->Skip(len));
  VZ_ASSIGN_OR_RETURN(uint32_t crc, reader->ReadU32());
  if (crc != Crc32(payload)) {
    return Status::DataLoss("WAL record checksum mismatch");
  }
  BinaryReader body{std::string(payload)};
  auto record = Decode<WalRecord>(&body);
  if (!record.ok()) {
    return Status::DataLoss("malformed WAL record payload: " +
                            record.status().message());
  }
  if (record->lsn != expected_lsn) {
    return Status::DataLoss("WAL LSN chain broken");
  }
  return record;
}

}  // namespace

Wal::Wal(const WalOptions& options)
    : options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()) {}

Wal::~Wal() {
  // Final flush first, so any WaitDurable waiter is released by genuine
  // durability rather than by the shutdown flag. (On a poisoned log this is
  // a no-op: the failure already released every waiter.)
  (void)Sync();
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
    stop_ = true;
    sync_cv_.notify_all();
  }
  if (sync_thread_.joinable()) sync_thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  for (Segment& segment : segments_) {
    if (segment.file != nullptr) {
      (void)segment.file->Close();
      segment.file.reset();
    }
  }
}

StatusOr<std::unique_ptr<Wal>> Wal::Open(const WalOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("WAL directory must not be empty");
  }
  std::unique_ptr<Wal> wal(new Wal(options));
  VZ_RETURN_IF_ERROR(wal->OpenDir());
  VZ_RETURN_IF_ERROR(wal->ScanAndSalvage());
  {
    std::lock_guard<std::mutex> lock(wal->sync_mu_);
    wal->appended_lsn_ = wal->last_lsn_;
    wal->durable_lsn_ = wal->last_lsn_;  // recovered bytes came from disk
  }
  wal->sync_thread_ = std::thread([w = wal.get()] { w->SyncLoop(); });
  return wal;
}

Status Wal::OpenDir() { return env_->CreateDirIfMissing(options_.dir); }

Status Wal::ScanAndSalvage() {
  std::vector<uint64_t> seqs;
  {
    VZ_ASSIGN_OR_RETURN(std::vector<std::string> names,
                        env_->ListDir(options_.dir));
    for (const std::string& name : names) {
      if (auto seq = ParseSegmentName(name)) seqs.push_back(*seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());

  last_lsn_ = options_.start_lsn;
  base_lsn_ = options_.start_lsn;
  uint64_t expected_start = options_.start_lsn;
  bool first = true;
  bool tail_found = false;  // everything after the torn point is dropped

  for (size_t i = 0; i < seqs.size(); ++i) {
    const std::string path = SegmentPath(options_.dir, seqs[i]);
    auto reader_or = BinaryReader::FromFile(path, env_);
    if (!reader_or.ok()) {
      return Status(reader_or.status().code(),
                    "cannot read WAL segment " + path + ": " +
                        reader_or.status().message());
    }
    BinaryReader reader = std::move(*reader_or);
    const uint64_t file_bytes = reader.data().size();

    Segment segment;
    segment.seq = seqs[i];
    segment.path = path;

    bool header_ok = !tail_found;
    if (header_ok) {
      auto magic = reader.ReadU32();
      auto version = reader.ReadU32();
      auto start = reader.ReadU64();
      auto crc = reader.ReadU32();
      header_ok = magic.ok() && version.ok() && start.ok() && crc.ok() &&
                  *magic == kWalMagic && *version == kWalFormatVersion;
      if (header_ok) {
        BinaryWriter check;
        check.WriteU32(*magic);
        check.WriteU32(*version);
        check.WriteU64(*start);
        header_ok = *crc == Crc32(check.buffer());
      }
      if (header_ok && !first && *start != expected_start) {
        header_ok = false;  // hole between segments: stranded data
      }
      if (header_ok && first) {
        // The first retained segment defines the log's base; a checkpoint
        // below it is fine (those records were compacted), above it is the
        // caller's gap to detect.
        base_lsn_ = *start;
        last_lsn_ = *start;
        expected_start = *start;
      }
      if (header_ok) segment.start_lsn = *start;
    }
    if (!header_ok) {
      // Torn header or a segment stranded past a torn tail: drop the file.
      stats_.salvaged_bytes += file_bytes;
      tail_found = true;
      (void)env_->Unlink(path);
      continue;
    }
    first = false;

    // Decode records until the chain breaks; that offset is the valid
    // extent.
    uint64_t lsn = segment.start_lsn;
    size_t valid_end = reader.position();
    while (!reader.AtEnd()) {
      auto record = DecodeRecord(&reader, lsn + 1);
      if (!record.ok()) break;
      ++lsn;
      valid_end = reader.position();
    }
    segment.last_lsn = lsn;
    segment.record_bytes = valid_end - kSegmentHeaderBytes;
    if (valid_end < file_bytes) {
      stats_.salvaged_bytes += file_bytes - valid_end;
      VZ_RETURN_IF_ERROR(env_->Truncate(path, valid_end));
      tail_found = true;  // later segments are stranded past this tear
    }
    expected_start = lsn;
    last_lsn_ = lsn;
    next_segment_seq_ = segment.seq + 1;
    segments_.push_back(std::move(segment));
  }

  if (!segments_.empty() && last_lsn_ < options_.start_lsn) {
    // Everything recovered predates the checkpoint cut (a torn tail ate
    // records the checkpoint already folded in). Those bytes are superseded:
    // drop them and restart numbering at the cut, or new appends would
    // collide with LSNs the checkpoint owns.
    for (Segment& segment : segments_) {
      stats_.salvaged_bytes += kSegmentHeaderBytes + segment.record_bytes;
      (void)env_->Unlink(segment.path);
    }
    segments_.clear();
    last_lsn_ = options_.start_lsn;
    base_lsn_ = options_.start_lsn;
  }
  if (segments_.empty()) {
    VZ_ASSIGN_OR_RETURN(Segment segment,
                        CreateSegment(next_segment_seq_++, last_lsn_));
    segments_.push_back(std::move(segment));
  } else {
    // Reopen the tail segment for appends.
    Segment& tail = segments_.back();
    auto file_or = env_->NewWritableFile(tail.path, /*truncate=*/false);
    if (!file_or.ok()) {
      return Status(file_or.status().code(),
                    "cannot reopen WAL tail segment: " +
                        file_or.status().message());
    }
    tail.file = std::move(*file_or);
    // Persist the salvage truncation before accepting new appends.
    VZ_RETURN_IF_ERROR(tail.file->Sync());
  }
  stats_.base_lsn = base_lsn_;
  return Status::OK();
}

StatusOr<Wal::Segment> Wal::CreateSegment(uint64_t seq, uint64_t start_lsn) {
  Segment segment;
  segment.seq = seq;
  segment.path = SegmentPath(options_.dir, seq);
  segment.start_lsn = start_lsn;
  segment.last_lsn = start_lsn;
  VZ_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                      env_->NewWritableFile(segment.path, /*truncate=*/true));
  segment.file = std::move(file);
  const std::string header = EncodeSegmentHeader(start_lsn);
  VZ_RETURN_IF_ERROR(segment.file->Append(header));
  VZ_RETURN_IF_ERROR(segment.file->Sync());
  // The file name itself must survive a crash.
  VZ_RETURN_IF_ERROR(env_->SyncDir(options_.dir));
  ++stats_.segments_created;
  return segment;
}

Status Wal::Poison(Status status, bool from_fsync) {
  std::lock_guard<std::mutex> lock(sync_mu_);
  if (from_fsync) {
    ++stats_.fsync_failures;
  } else {
    ++stats_.io_errors;
  }
  if (poison_.ok()) poison_ = std::move(status);
  // Every waiter (ack paths, long polls, the sync loop) must see the
  // failure now — a blocked WaitDurable is an ack that will never be
  // refused.
  sync_cv_.notify_all();
  return poison_;
}

Status Wal::RotateLocked() {
  Segment& tail = segments_.back();
  // Seal: flush the old segment completely and advance the durability
  // frontier over it, so the sync loop only ever has to fsync the open one.
  // The reference is dropped, not closed: the sync loop may still be
  // flushing the file, and its last holder closes it.
  VZ_RETURN_IF_ERROR(SyncFile(tail.file.get(), tail.last_lsn));
  tail.file.reset();
  auto fresh_or = CreateSegment(next_segment_seq_++, tail.last_lsn);
  if (!fresh_or.ok()) {
    // The sealed tail has no open file any more; without a fresh segment
    // the log cannot accept appends — poison rather than leave a half
    // rotated log that a later append would trip over.
    return Poison(fresh_or.status(), /*from_fsync=*/false);
  }
  segments_.push_back(std::move(*fresh_or));
  return Status::OK();
}

StatusOr<uint64_t> Wal::Append(const WalRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  {
    std::lock_guard<std::mutex> sync_lock(sync_mu_);
    if (!poison_.ok()) return poison_;
  }
  const uint64_t lsn = record.lsn == 0 ? last_lsn_ + 1 : record.lsn;
  if (lsn != last_lsn_ + 1) {
    return Status::InvalidArgument(
        "WAL append breaks the LSN chain: got " + std::to_string(lsn) +
        ", expected " + std::to_string(last_lsn_ + 1));
  }
  if (record.payload.size() > kWalMaxPayloadBytes) {
    return Status::InvalidArgument("WAL record payload too large");
  }
  const std::string framed = EncodeRecord(record, lsn);
  if (segments_.back().record_bytes + framed.size() >
          options_.segment_bytes &&
      segments_.back().record_bytes > 0) {
    VZ_RETURN_IF_ERROR(RotateLocked());
  }
  Segment& tail = segments_.back();
  if (Status written = tail.file->Append(framed); !written.ok()) {
    // A failed write may have landed a partial prefix (short write). Any
    // later append would sit past that tear and be unreachable by the
    // chain decode — poison instead of silently stacking unreadable
    // records behind an ENOSPC.
    return Poison(std::move(written), /*from_fsync=*/false);
  }
  tail.record_bytes += framed.size();
  tail.last_lsn = lsn;
  last_lsn_ = lsn;
  ++stats_.appends;
  stats_.appended_bytes += framed.size();
  {
    std::lock_guard<std::mutex> sync_lock(sync_mu_);
    appended_lsn_ = lsn;
    sync_cv_.notify_all();  // wake the sync loop (and long-poll waiters)
  }
  return lsn;
}

Status Wal::SyncFile(WritableFile* file, uint64_t target_lsn) {
  std::lock_guard<std::mutex> fsync_lock(fsync_mu_);
  {
    // Fsyncgate: once an fsync failed, the kernel may already have dropped
    // the dirty pages — a retried fsync that "succeeds" proves nothing.
    // Never touch the disk again; report the original failure.
    std::lock_guard<std::mutex> lock(sync_mu_);
    if (!poison_.ok()) return poison_;
  }
  if (options_.fsync_interval_ms >= 0 && file != nullptr) {
    if (Status synced = file->Sync(); !synced.ok()) {
      return Poison(std::move(synced), /*from_fsync=*/true);
    }
  }
  std::lock_guard<std::mutex> lock(sync_mu_);
  if (target_lsn > durable_lsn_) {
    durable_lsn_ = target_lsn;
    ++stats_.fsyncs;
    sync_cv_.notify_all();
  }
  return Status::OK();
}

void Wal::SyncLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(sync_mu_);
      // A poisoned log parks the loop: there is nothing left it could make
      // durable, and retrying the fsync is exactly what the poison forbids.
      sync_cv_.wait(lock, [this] {
        return stop_ || (poison_.ok() && appended_lsn_ > durable_lsn_);
      });
      if (stop_) return;  // destructor does the final flush
    }
    // The opt-in gather window: appends racing this sleep share the fsync.
    // Without it commit is self-clocked — appends that land during one
    // fsync ride the next.
    if (options_.fsync_interval_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.fsync_interval_ms));
    }
    (void)Sync();  // failure poisons the log and releases every waiter
  }
}

Status Wal::WaitDurable(uint64_t lsn) {
  std::unique_lock<std::mutex> lock(sync_mu_);
  sync_cv_.wait(lock, [this, lsn] {
    return stop_ || !poison_.ok() || durable_lsn_ >= lsn;
  });
  if (durable_lsn_ >= lsn) return Status::OK();
  // Poisoned below the requested LSN: the record will never be durable.
  // The caller must refuse the ack.
  if (!poison_.ok()) return poison_;
  return Status::OK();  // stopping: destruction flushed what it could
}

Status Wal::Sync() {
  // Everything up to `last_lsn_` was fully written before it was published,
  // and sealed segments were flushed at rotation, so one fsync of the open
  // segment covers the sampled target. The fsync runs with `mu_` released;
  // the shared reference keeps the file open across a racing rotation.
  std::shared_ptr<WritableFile> file;
  uint64_t target = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    file = segments_.back().file;
    target = last_lsn_;
  }
  return SyncFile(file.get(), target);
}

Status Wal::health() const {
  std::lock_guard<std::mutex> lock(sync_mu_);
  return poison_;
}

bool Wal::WaitDurablePast(uint64_t lsn, int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(sync_mu_);
  sync_cv_.wait_for(
      lock, std::chrono::milliseconds(std::max<int64_t>(timeout_ms, 0)),
      [this, lsn] { return stop_ || !poison_.ok() || durable_lsn_ > lsn; });
  return durable_lsn_ > lsn;
}

StatusOr<std::vector<WalRecord>> Wal::ReadSegment(const Segment& segment,
                                                  uint64_t from_lsn,
                                                  uint64_t upto_lsn,
                                                  size_t max_records) const {
  VZ_ASSIGN_OR_RETURN(BinaryReader reader,
                      BinaryReader::FromFile(segment.path, env_));
  VZ_RETURN_IF_ERROR(reader.Skip(kSegmentHeaderBytes));
  std::vector<WalRecord> records;
  uint64_t lsn = segment.start_lsn;
  const size_t valid_end = kSegmentHeaderBytes + segment.record_bytes;
  while (reader.position() < valid_end && lsn < segment.last_lsn &&
         records.size() < max_records) {
    VZ_ASSIGN_OR_RETURN(WalRecord record, DecodeRecord(&reader, lsn + 1));
    ++lsn;
    if (record.lsn > upto_lsn) break;
    if (record.lsn > from_lsn) records.push_back(std::move(record));
  }
  return records;
}

StatusOr<std::vector<WalRecord>> Wal::ReadFrom(uint64_t from_lsn,
                                               size_t max_records) {
  uint64_t durable = 0;
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
    durable = durable_lsn_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (from_lsn < base_lsn_) {
    return Status::OutOfRange(
        "WAL records up to " + std::to_string(base_lsn_) +
        " were compacted into a checkpoint; cannot ship from " +
        std::to_string(from_lsn));
  }
  std::vector<WalRecord> records;
  for (const Segment& segment : segments_) {
    if (records.size() >= max_records) break;
    if (segment.last_lsn <= from_lsn) continue;
    VZ_ASSIGN_OR_RETURN(
        std::vector<WalRecord> chunk,
        ReadSegment(segment, from_lsn, durable,
                    max_records - records.size()));
    for (WalRecord& record : chunk) records.push_back(std::move(record));
  }
  return records;
}

Status Wal::Replay(uint64_t from_lsn,
                   const std::function<Status(const WalRecord&)>& fn) {
  std::vector<Segment> segments;
  {
    std::lock_guard<std::mutex> lock(mu_);
    segments = segments_;
    for (Segment& segment : segments) segment.file.reset();  // read-only
  }
  for (const Segment& segment : segments) {
    if (segment.last_lsn <= from_lsn) continue;
    VZ_ASSIGN_OR_RETURN(std::vector<WalRecord> chunk,
                        ReadSegment(segment, from_lsn, last_lsn(),
                                    segment.last_lsn - segment.start_lsn));
    for (const WalRecord& record : chunk) {
      VZ_RETURN_IF_ERROR(fn(record));
    }
  }
  return Status::OK();
}

Status Wal::Compact(uint64_t upto_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (upto_lsn > last_lsn_) {
    return Status::InvalidArgument("cannot compact past the log end");
  }
  if (segments_.back().last_lsn <= upto_lsn &&
      segments_.back().record_bytes > 0) {
    VZ_RETURN_IF_ERROR(RotateLocked());
  }
  size_t removed = 0;
  while (segments_.size() > 1 && segments_[0].last_lsn <= upto_lsn) {
    (void)env_->Unlink(segments_[0].path);
    ++removed;
    ++stats_.segments_deleted;
    segments_.erase(segments_.begin());
  }
  if (removed > 0) {
    VZ_RETURN_IF_ERROR(env_->SyncDir(options_.dir));
  }
  base_lsn_ = segments_.front().start_lsn;
  stats_.base_lsn = base_lsn_;
  // The checkpoint supersedes the compacted records: they are durable by
  // definition even if their segment fsync never ran.
  std::lock_guard<std::mutex> sync_lock(sync_mu_);
  if (upto_lsn > durable_lsn_) {
    durable_lsn_ = upto_lsn;
    sync_cv_.notify_all();
  }
  return Status::OK();
}

uint64_t Wal::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_lsn_;
}

uint64_t Wal::durable_lsn() const {
  std::lock_guard<std::mutex> lock(sync_mu_);
  return durable_lsn_;
}

uint64_t Wal::base_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_lsn_;
}

uint64_t Wal::live_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t bytes = 0;
  for (const Segment& segment : segments_) bytes += segment.record_bytes;
  return bytes;
}

WalStats Wal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::lock_guard<std::mutex> sync_lock(sync_mu_);
  WalStats stats = stats_;
  stats.last_lsn = last_lsn_;
  stats.base_lsn = base_lsn_;
  stats.live_bytes = 0;
  for (const Segment& segment : segments_) {
    stats.live_bytes += segment.record_bytes;
  }
  stats.durable_lsn = durable_lsn_;
  return stats;
}

// --- Checkpoint manifest -------------------------------------------------

std::string WalCheckpointMetaPath(const std::string& dir, uint64_t lsn) {
  char name[64];
  std::snprintf(name, sizeof(name), "checkpoint-%016" PRIx64 ".meta", lsn);
  return dir + "/" + name;
}

std::string WalCheckpointSnapshotPath(const std::string& dir, uint64_t lsn) {
  char name[64];
  std::snprintf(name, sizeof(name), "checkpoint-%016" PRIx64 ".vzss", lsn);
  return dir + "/" + name;
}

// The manifest body after magic and version, in file order.
template <typename A>
Status Visit(A& ar, WalCheckpoint::Camera& camera) {
  return Fields(ar, camera.camera, camera.stats.frames_offered,
                camera.stats.frames_accepted, camera.stats.frames_rejected,
                camera.stats.out_of_order_dropped,
                camera.stats.duplicates_dropped,
                camera.stats.objects_quarantined, camera.stats.last_frame_ms,
                camera.last_frame_id, camera.expected_dim);
}

template <typename A>
Status Visit(A& ar, WalCheckpoint::Session& session) {
  return Fields(ar, session.session_id, session.evicted_up_to,
                session.responses);
}

template <typename A>
Status Visit(A& ar, WalCheckpoint& checkpoint) {
  return Fields(ar, checkpoint.lsn, checkpoint.epoch, checkpoint.now_ms,
                checkpoint.ingest, checkpoint.cameras, checkpoint.sessions,
                checkpoint.has_tuning, checkpoint.tuning);
}

Status SaveWalCheckpointMeta(const WalCheckpoint& checkpoint,
                             const std::string& path, Env* env) {
  BinaryWriter writer;
  writer.WriteU32(kWalCheckpointMagic);
  writer.WriteU32(kWalCheckpointVersion);
  Encode(&writer, checkpoint);
  writer.WriteU32(Crc32(writer.buffer()));
  return writer.Flush(path, env);
}

StatusOr<WalCheckpoint> LoadWalCheckpointMeta(const std::string& path,
                                              Env* env) {
  VZ_ASSIGN_OR_RETURN(BinaryReader reader,
                      BinaryReader::FromFile(path, env));
  if (reader.data().size() < sizeof(uint32_t)) {
    return Status::DataLoss("checkpoint manifest truncated: " + path);
  }
  const std::string_view sealed(reader.data().data(),
                                reader.data().size() - sizeof(uint32_t));
  {
    BinaryReader crc_reader{std::string(
        reader.data().data() + sealed.size(), sizeof(uint32_t))};
    VZ_ASSIGN_OR_RETURN(uint32_t crc, crc_reader.ReadU32());
    if (crc != Crc32(sealed)) {
      return Status::DataLoss("checkpoint manifest checksum mismatch: " +
                              path);
    }
  }
  VZ_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  VZ_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (magic != kWalCheckpointMagic) {
    return Status::DataLoss("not a checkpoint manifest: " + path);
  }
  if (version != kWalCheckpointVersion) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(version));
  }
  VZ_ASSIGN_OR_RETURN(WalCheckpoint checkpoint,
                      DecodePrefix<WalCheckpoint>(&reader));
  if (reader.remaining() != sizeof(uint32_t)) {
    return Status::DataLoss("trailing bytes in checkpoint manifest: " + path);
  }
  return checkpoint;
}

StatusOr<std::vector<uint64_t>> ListWalCheckpointLsns(const std::string& dir,
                                                      Env* env) {
  if (env == nullptr) env = Env::Default();
  VZ_ASSIGN_OR_RETURN(std::vector<std::string> names, env->ListDir(dir));
  std::vector<uint64_t> lsns;
  for (const std::string& name : names) {
    if (name.size() != 11 + 16 + 5 || name.rfind("checkpoint-", 0) != 0 ||
        name.substr(27) != ".meta") {
      continue;
    }
    uint64_t lsn = 0;
    bool valid = true;
    for (size_t i = 11; i < 27; ++i) {
      const char c = name[i];
      uint64_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint64_t>(c - 'a') + 10;
      } else {
        valid = false;
        break;
      }
      lsn = (lsn << 4) | digit;
    }
    if (valid) lsns.push_back(lsn);
  }
  std::sort(lsns.begin(), lsns.end());
  return lsns;
}

void RemoveWalCheckpointsBelow(const std::string& dir, uint64_t keep_lsn,
                               Env* env) {
  if (env == nullptr) env = Env::Default();
  auto lsns = ListWalCheckpointLsns(dir, env);
  if (!lsns.ok()) return;
  for (uint64_t lsn : *lsns) {
    if (lsn >= keep_lsn) continue;
    (void)env->Unlink(WalCheckpointMetaPath(dir, lsn));
    (void)env->Unlink(WalCheckpointSnapshotPath(dir, lsn));
  }
}

}  // namespace vz::io
