#ifndef VZ_IO_ARCHIVE_H_
#define VZ_IO_ARCHIVE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "io/binary_format.h"

namespace vz::io {

/// One description per serialized struct (see DESIGN.md, "Network
/// service"). A struct's byte layout is written once, as
///
///   template <class A> Status Visit(A& ar, T& value);
///
/// next to the type (in the type's namespace, so the generic code finds it
/// by argument-dependent lookup). The Visit hands its members to
/// `Fields(ar, ...)` (or `Field(ar, member)`) in wire order, and three
/// archives run it:
///   WriteArchive — appends the bytes to a `BinaryWriter`;
///   ReadArchive  — reads them back from a `BinaryReader`, bounds-checked;
///   SizeArchive  — counts them, which gives every element type its minimum
///                  encoded size (the size of a default value: empty
///                  collections, absent optionals).
/// Checks on outside input (enum ranges, invariants between fields) sit in
/// the Visit behind `if constexpr (A::kDecoding)`; writing never checks.
///
/// Field widths: bool is u8, `int` is i64, `size_t` is u64, strings and
/// float arrays carry a u64 length; collections carry a u64 count unless the
/// Visit asks for another width through `Elements<Count>`.

static_assert(std::is_same_v<size_t, uint64_t>,
              "size_t fields are encoded as u64");

/// A float array borrowed for writing (a FeatureMap row): encoded exactly
/// like a `std::vector<float>` field. Never decoded — reading produces a
/// vector.
struct FloatsView {
  const float* data = nullptr;
  size_t size = 0;
};

class WriteArchive {
 public:
  static constexpr bool kDecoding = false;

  explicit WriteArchive(BinaryWriter* writer) : writer_(writer) {}

  Status Value(uint8_t& v) { writer_->WriteU8(v); return Status::OK(); }
  Status Value(uint32_t& v) { writer_->WriteU32(v); return Status::OK(); }
  Status Value(uint64_t& v) { writer_->WriteU64(v); return Status::OK(); }
  Status Value(int64_t& v) { writer_->WriteI64(v); return Status::OK(); }
  Status Value(float& v) { writer_->WriteF32(v); return Status::OK(); }
  Status Value(double& v) { writer_->WriteF64(v); return Status::OK(); }
  Status Value(std::string& v) { writer_->WriteString(v); return Status::OK(); }
  Status Value(std::vector<float>& v) {
    writer_->WriteFloats(v);
    return Status::OK();
  }
  Status Value(FloatsView& v) {
    writer_->WriteFloats(v.data, v.size);
    return Status::OK();
  }

  /// The element count of a collection whose elements each take at least
  /// `min_element_bytes`.
  template <typename Count>
  Status ElementCount(Count& count, size_t /*min_element_bytes*/) {
    return Value(count);
  }

 private:
  BinaryWriter* writer_;
};

class ReadArchive {
 public:
  static constexpr bool kDecoding = true;

  explicit ReadArchive(BinaryReader* reader) : reader_(reader) {}

  Status Value(uint8_t& v) { return Read(v, reader_->ReadU8()); }
  Status Value(uint32_t& v) { return Read(v, reader_->ReadU32()); }
  Status Value(uint64_t& v) { return Read(v, reader_->ReadU64()); }
  Status Value(int64_t& v) { return Read(v, reader_->ReadI64()); }
  Status Value(float& v) { return Read(v, reader_->ReadF32()); }
  Status Value(double& v) { return Read(v, reader_->ReadF64()); }
  Status Value(std::string& v) { return Read(v, reader_->ReadString()); }
  Status Value(std::vector<float>& v) { return Read(v, reader_->ReadFloats()); }

  /// Reads a count and rejects it when the bytes left cannot hold that many
  /// elements of at least `min_element_bytes` each — corruption or a hostile
  /// peer, refused before any allocation sized by it.
  template <typename Count>
  Status ElementCount(Count& count, size_t min_element_bytes) {
    VZ_RETURN_IF_ERROR(Value(count));
    if (count > reader_->remaining() / min_element_bytes) {
      return Status::DataLoss("implausible element count in payload");
    }
    return Status::OK();
  }

 private:
  template <typename T>
  static Status Read(T& out, StatusOr<T> read) {
    if (!read.ok()) return read.status();
    out = std::move(*read);
    return Status::OK();
  }

  BinaryReader* reader_;
};

class SizeArchive {
 public:
  static constexpr bool kDecoding = false;

  Status Value(uint8_t&) { return Add(sizeof(uint8_t)); }
  Status Value(uint32_t&) { return Add(sizeof(uint32_t)); }
  Status Value(uint64_t&) { return Add(sizeof(uint64_t)); }
  Status Value(int64_t&) { return Add(sizeof(int64_t)); }
  Status Value(float&) { return Add(sizeof(float)); }
  Status Value(double&) { return Add(sizeof(double)); }
  Status Value(std::string& v) { return Add(sizeof(uint64_t) + v.size()); }
  Status Value(std::vector<float>& v) {
    return Add(sizeof(uint64_t) + v.size() * sizeof(float));
  }
  Status Value(FloatsView& v) {
    return Add(sizeof(uint64_t) + v.size * sizeof(float));
  }
  template <typename Count>
  Status ElementCount(Count& count, size_t /*min_element_bytes*/) {
    return Value(count);
  }

  size_t bytes() const { return bytes_; }

 private:
  Status Add(size_t bytes) {
    bytes_ += bytes;
    return Status::OK();
  }

  size_t bytes_ = 0;
};

template <typename A, typename T>
Status Field(A& ar, T& value);

/// Bytes `value` encodes to.
template <typename T>
size_t EncodedSize(const T& value) {
  SizeArchive ar;
  (void)Field(ar, const_cast<T&>(value));
  return ar.bytes();
}

/// The fewest bytes any `T` encodes to: the size of a default `T`, computed
/// once per type. Element counts are checked against it.
template <typename T>
size_t MinEncodedSize() {
  static const size_t bytes = EncodedSize(T{});
  return bytes;
}

/// A collection with a `Count`-wide element count.
template <typename Count, typename A, typename T>
Status Elements(A& ar, std::vector<T>& elements) {
  Count count = static_cast<Count>(elements.size());
  VZ_RETURN_IF_ERROR(ar.ElementCount(count, MinEncodedSize<T>()));
  if constexpr (A::kDecoding) {
    elements.clear();
    elements.reserve(count);
    for (Count i = 0; i < count; ++i) {
      T element{};
      VZ_RETURN_IF_ERROR(Field(ar, element));
      elements.push_back(std::move(element));
    }
  } else {
    for (T& element : elements) VZ_RETURN_IF_ERROR(Field(ar, element));
  }
  return Status::OK();
}

/// An enum carried as `Wire`; decoding rejects values above `max`.
template <typename Wire, typename A, typename E>
Status Enum(A& ar, E& value, E max, const char* what) {
  Wire wire = static_cast<Wire>(value);
  VZ_RETURN_IF_ERROR(ar.Value(wire));
  if constexpr (A::kDecoding) {
    if (wire > static_cast<Wire>(max)) {
      return Status::InvalidArgument(std::string("invalid ") + what);
    }
    value = static_cast<E>(wire);
  }
  return Status::OK();
}

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;
template <typename T>
inline constexpr bool kIsPair = false;
template <typename F, typename S>
inline constexpr bool kIsPair<std::pair<F, S>> = true;

/// Visits one field: archive primitives directly, bool as u8, int as i64,
/// vectors behind a u64 count, optionals behind a u8 presence flag, pairs
/// as their two members, anything else through its own Visit.
template <typename A, typename T>
Status Field(A& ar, T& value) {
  if constexpr (requires { ar.Value(value); }) {
    return ar.Value(value);
  } else if constexpr (std::is_same_v<T, bool>) {
    uint8_t wire = value ? 1 : 0;
    VZ_RETURN_IF_ERROR(ar.Value(wire));
    if constexpr (A::kDecoding) value = wire != 0;
    return Status::OK();
  } else if constexpr (std::is_same_v<T, int>) {
    int64_t wire = value;
    VZ_RETURN_IF_ERROR(ar.Value(wire));
    if constexpr (A::kDecoding) value = static_cast<int>(wire);
    return Status::OK();
  } else if constexpr (kIsVector<T>) {
    return Elements<uint64_t>(ar, value);
  } else if constexpr (kIsOptional<T>) {
    bool present = value.has_value();
    VZ_RETURN_IF_ERROR(Field(ar, present));
    if (!present) return Status::OK();
    if constexpr (A::kDecoding) value.emplace();
    return Field(ar, *value);
  } else if constexpr (kIsPair<T>) {
    VZ_RETURN_IF_ERROR(Field(ar, value.first));
    return Field(ar, value.second);
  } else {
    return Visit(ar, value);
  }
}

/// Visits `fields` in order, stopping at the first failure.
template <typename A, typename... Ts>
Status Fields(A& ar, Ts&... fields) {
  Status status;
  (void)((status = Field(ar, fields), status.ok()) && ...);
  return status;
}

/// Appends `value`'s encoding to `writer`.
template <typename T>
void Encode(BinaryWriter* writer, const T& value) {
  WriteArchive ar(writer);
  (void)Field(ar, const_cast<T&>(value));  // writing never fails
}

/// Decodes one `T` from the front of the reader's bytes and leaves the rest
/// (the idempotency token ahead of a mutating request's body).
template <typename T>
StatusOr<T> DecodePrefix(BinaryReader* reader) {
  T value{};
  ReadArchive ar(reader);
  VZ_RETURN_IF_ERROR(Field(ar, value));
  return value;
}

/// Decodes one `T` that must end the reader's bytes: a whole request or
/// reply payload, a WAL record. Trailing bytes are malformed input
/// (kInvalidArgument).
template <typename T>
StatusOr<T> Decode(BinaryReader* reader) {
  VZ_ASSIGN_OR_RETURN(T value, DecodePrefix<T>(reader));
  if (!reader->AtEnd()) {
    return Status::InvalidArgument("trailing bytes after payload");
  }
  return value;
}

}  // namespace vz::io

#endif  // VZ_IO_ARCHIVE_H_
