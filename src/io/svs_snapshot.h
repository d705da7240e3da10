#ifndef VZ_IO_SVS_SNAPSHOT_H_
#define VZ_IO_SVS_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/representative.h"
#include "core/svs.h"
#include "io/archive.h"
#include "vector/feature_map.h"
#include "vector/feature_vector.h"

namespace vz::io {

class Env;

/// Persists and restores an `SvsStore` — every SVS with its feature map,
/// per-SVS representative, frame ids, byte accounting and access statistics.
///
/// A snapshot makes the indexing layer restartable: after a crash or a
/// planned restart, the store is reloaded and the intra-/inter-camera
/// indices are rebuilt by re-inserting the stored SVSs (index structures are
/// derived state; only the SVSs are ground truth). The format is versioned;
/// loaders reject unknown versions instead of misparsing.
///
/// One format, version 2, which treats failure as the common case:
///   header:     magic u32, version u32 (=2), record count u64
///   per record: payload length u64, payload bytes, payload CRC32 u32
///   footer:     CRC32 u32 over every preceding byte of the file
/// Per-record checksums localize corruption to one SVS (enabling prefix
/// salvage); the file-level checksum catches bit flips anywhere, including
/// in lengths and counts. Saves are atomic (temp file + rename, fsync'd), so
/// a crash during `SaveSvsStore` leaves the previous snapshot intact.
///
/// A record payload is one SVS: camera, start and end, its feature map and
/// representative (the Visits below, which the wire shares), frame ids,
/// encoded bytes and access statistics.

inline constexpr uint32_t kSnapshotMagic = 0x565A5353;  // "VZSS"
inline constexpr uint32_t kSnapshotVersion = 2;

/// How `LoadSvsStore` reacts to a torn or corrupted snapshot.
struct SnapshotLoadOptions {
  /// Default (false): all-or-nothing — any parse or checksum error leaves
  /// the caller's store completely untouched. With salvage enabled, the
  /// valid record prefix of a torn snapshot is recovered instead: records
  /// are appended up to (not including) the first corrupted one and the
  /// load reports success with `SnapshotLoadReport::salvaged = true`.
  /// Salvage never admits a record whose own checksum fails.
  bool salvage = false;
};

/// What a load actually did — populated when the caller passes a report.
struct SnapshotLoadReport {
  /// Format version of the file (0 if the header was unreadable).
  uint32_t version = 0;
  /// Records the header promised.
  uint64_t records_expected = 0;
  /// Records appended to the store.
  uint64_t records_loaded = 0;
  /// True when a corrupted tail was dropped in salvage mode.
  bool salvaged = false;
};

/// Writes `store` to `path` in the current (v2, checksummed) format.
/// Atomic: on any failure the previous file at `path` is left untouched.
/// All I/O goes through `env` (default: the real POSIX `Env`), so a full or
/// dying disk surfaces as `kResourceExhausted` / `kDataLoss`.
Status SaveSvsStore(const core::SvsStore& store, const std::string& path,
                    Env* env = nullptr);

/// Appends every SVS of the snapshot at `path` into `store`, preserving
/// creation order (ids are re-assigned densely; with an empty target store
/// they match the saved ids). All decoding
/// happens in a temporary store: on magic/version mismatch, truncation or
/// checksum failure the caller's `store` is left exactly as it was — no
/// partially appended records (unless `options.salvage` asks for the valid
/// prefix of a torn file).
Status LoadSvsStore(const std::string& path, core::SvsStore* store,
                    const SnapshotLoadOptions& options = SnapshotLoadOptions(),
                    SnapshotLoadReport* report = nullptr, Env* env = nullptr);

/// One FeatureMap row: its floats, then its weight. Writing borrows the
/// map's row (`FloatsView`); reading owns the floats until `FeatureMap::Add`
/// copies them in.
template <typename Floats>
struct FeatureRow {
  Floats values{};
  double weight = 0.0;
};
using DecodedFeatureRow = FeatureRow<std::vector<float>>;

template <typename A, typename Floats>
Status Visit(A& ar, FeatureRow<Floats>& row) {
  VZ_RETURN_IF_ERROR(Field(ar, row.values));
  return Field(ar, row.weight);
}

}  // namespace vz::io

namespace vz {

template <typename A>
Status Visit(A& ar, FeatureVector& vector) {
  if constexpr (A::kDecoding) {
    std::vector<float> components;
    VZ_RETURN_IF_ERROR(io::Field(ar, components));
    vector = FeatureVector(std::move(components));
    return Status::OK();
  } else {
    return io::Field(ar, const_cast<std::vector<float>&>(vector.components()));
  }
}

/// A u64 row count, then each row (see `io::FeatureRow`).
template <typename A>
Status Visit(A& ar, FeatureMap& map) {
  uint64_t rows = map.size();
  VZ_RETURN_IF_ERROR(
      ar.ElementCount(rows, io::MinEncodedSize<io::DecodedFeatureRow>()));
  for (uint64_t i = 0; i < rows; ++i) {
    if constexpr (A::kDecoding) {
      io::DecodedFeatureRow row;
      VZ_RETURN_IF_ERROR(Visit(ar, row));
      VZ_RETURN_IF_ERROR(
          map.Add(row.values.data(), row.values.size(), row.weight));
    } else {
      io::FeatureRow<io::FloatsView> row{{map.row(i), map.dim()},
                                         map.weight(i)};
      VZ_RETURN_IF_ERROR(Visit(ar, row));
    }
  }
  return Status::OK();
}

}  // namespace vz

namespace vz::core {

template <typename A>
Status Visit(A& ar, WeightedCenter& center) {
  return io::Fields(ar, center.center, center.weight, center.boundary,
                    center.mean_member_distance, center.last_hit_ms);
}

/// A u64 center count, then each center.
template <typename A>
Status Visit(A& ar, Representative& rep) {
  return io::Field(ar, rep.mutable_centers());
}

}  // namespace vz::core

#endif  // VZ_IO_SVS_SNAPSHOT_H_
