#ifndef DPJL_COMMON_BYTES_H_
#define DPJL_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace dpjl {

/// The one byte codec behind every dpjl format: sketches, the snapshot
/// envelope, shard manifests, index record streams and DPJLWIRE frames all
/// read and write through ByteWriter / ByteReader, so the rules live here
/// once:
///
///   - fixed-width PODs are little-endian, copied byte for byte (a double
///     crosses as its IEEE-754 bytes, which keeps answers byte-identical);
///   - strings and nested blobs carry a u64 length prefix;
///   - a count read from the bytes is bounded by the bytes left before
///     anything is allocated or looped over;
///   - a decode consumes its input exactly (ByteReader::Finish);
///   - integrity is FNV-1a 64 (SnapshotChecksum in src/core/snapshot.h).
///
/// No decoder does its own offset or length arithmetic: a hostile length
/// or count fails the reader, never wraps into an accepted read.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "dpjl formats are little-endian and the codec copies host "
              "bytes");

/// Appends fields to an owned byte string.
class ByteWriter {
 public:
  void Reserve(size_t bytes) { out_.reserve(bytes); }

  template <typename T>
  void Pod(T value) {
    PodArray(&value, 1);
  }

  /// `count` values in one append — value arrays go in bulk, never per
  /// element.
  template <typename T>
  void PodArray(const T* values, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.append(reinterpret_cast<const char*>(values), count * sizeof(T));
  }

  /// Bytes as they are, no prefix (magics, an already-framed payload).
  void Raw(std::string_view bytes) { out_.append(bytes); }

  /// u64 length prefix, then the bytes.
  void String(std::string_view s) {
    Pod(static_cast<uint64_t>(s.size()));
    Raw(s);
  }

  std::string_view view() const { return out_; }
  std::string Take() && { return std::move(out_); }

 private:
  std::string out_;
};

/// Reads fields from a byte span with a sticky failure state: the first
/// read that does not fit fails the reader, every later read fails too and
/// leaves its output untouched, so a decoder reads a whole record and tests
/// once. Each read also returns whether the reader is still good. The
/// reader views its input, which must outlive it.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - offset_; }

  template <typename T>
  bool Pod(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::string_view raw;
    if (!Raw(sizeof(T), &raw)) return false;
    std::memcpy(value, raw.data(), sizeof(T));
    return true;
  }

  /// `count` values into `values`; the count is checked against the bytes
  /// left before anything is allocated.
  template <typename T>
  bool PodArray(uint64_t count, std::vector<T>* values) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!ok_ || count > remaining() / sizeof(T)) return Fail();
    std::string_view raw;
    Raw(count * sizeof(T), &raw);
    values->resize(count);
    if (count > 0) std::memcpy(values->data(), raw.data(), raw.size());
    return true;
  }

  /// The next `len` bytes as a view into the input.
  bool Raw(uint64_t len, std::string_view* bytes) {
    if (!ok_ || len > remaining()) return Fail();
    *bytes = bytes_.substr(offset_, len);
    offset_ += len;
    return true;
  }

  /// A u64-length-prefixed string.
  bool String(std::string* s) {
    uint64_t len = 0;
    std::string_view raw;
    if (!Pod(&len) || !Raw(len, &raw)) return false;
    s->assign(raw);
    return true;
  }

  /// Consumes `magic` if the input continues with it; fails otherwise.
  bool Magic(std::string_view magic) {
    std::string_view raw;
    if (!Raw(magic.size(), &raw)) return false;
    return raw == magic || Fail();
  }

  /// A u64 record count, refused when more records than
  /// remaining / min_record_bytes are claimed: each record needs at least
  /// that many bytes, so no loop or reserve is sized from a lie.
  bool Count(uint64_t* count, size_t min_record_bytes) {
    uint64_t claimed = 0;
    if (!Pod(&claimed)) return false;
    if (claimed > remaining() / min_record_bytes) return Fail();
    *count = claimed;
    return true;
  }

  /// kDataLoss "truncated <what>" after a failed read, "trailing bytes
  /// after <what>" when input is left over, OK when it was consumed
  /// exactly.
  Status Finish(std::string_view what) const {
    if (!ok_) return Status::DataLoss("truncated " + std::string(what));
    if (remaining() != 0) {
      return Status::DataLoss("trailing bytes after " + std::string(what));
    }
    return Status::OK();
  }

 private:
  bool Fail() {
    ok_ = false;
    return false;
  }

  std::string_view bytes_;
  size_t offset_ = 0;
  bool ok_ = true;
};

}  // namespace dpjl

#endif  // DPJL_COMMON_BYTES_H_
