/// \file blob.h
/// \brief Minimal binary serialization for lane checkpoints.
///
/// The fleet simulator's lane evictor (DESIGN.md §10) dehydrates cold
/// lanes into compact in-memory blobs and restores them bit-exactly on
/// their next due event. This writer/reader pair is the wire format:
/// LEB128 varints for integers (zigzag for signed — checkpoint state is
/// overwhelmingly small counts, ids and hour-scale timestamps, so
/// fixed-width encoding tripled blob size), raw IEEE-754 bit patterns
/// for doubles (memcpy, never a decimal round-trip — restore must
/// replay *bit-identically*, NFR2), and strings with per-blob
/// interning: each distinct string is written once and back-referenced
/// afterwards, which collapses the file paths repeated across NameNode
/// state, manifest pools and removed-path sets. A first occurrence is
/// front-coded against the previous first occurrence (shared prefix
/// length, suffix length, suffix bytes): the NameNode writes its paths
/// sorted, so each costs little more than the bytes where it differs
/// from the one before. The reader rebuilds those strings in an arena it
/// owns. Blobs never leave the process and never cross versions, so
/// there is no tagging and no backward compatibility machinery.

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace autocomp::common {

/// \brief Appends varint/interned values to a growing byte buffer.
class BlobWriter {
 public:
  BlobWriter() = default;

  void WriteU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  void WriteU32(uint32_t v) { WriteVarint(v); }
  void WriteI32(int32_t v) { WriteVarint(ZigZag(static_cast<int64_t>(v))); }
  void WriteU64(uint64_t v) { WriteVarint(v); }
  void WriteI64(int64_t v) { WriteVarint(ZigZag(v)); }

  /// Raw IEEE-754 bits; restore reproduces the exact double. Fixed
  /// width: double bit patterns do not varint-compress.
  void WriteF64(double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    char bytes[sizeof(bits)];
    for (size_t i = 0; i < sizeof(bits); ++i) {
      bytes[i] = static_cast<char>((bits >> (8 * i)) & 0xFF);
    }
    buffer_.append(bytes, sizeof(bits));
  }

  /// Interned and front-coded: the first occurrence writes tag 0, the
  /// length of the prefix it shares with the previous first occurrence,
  /// the suffix length and the suffix bytes, and enters the blob's string
  /// table; repeats write table-index + 1.
  void WriteString(std::string_view s) {
    const auto [it, inserted] =
        interned_.emplace(std::string(s), interned_.size());
    if (!inserted) {
      WriteVarint(static_cast<uint64_t>(it->second) + 1);
      return;
    }
    const size_t common = std::min(s.size(), last_new_.size());
    const size_t shared = static_cast<size_t>(
        std::mismatch(s.begin(), s.begin() + common, last_new_.begin())
            .first -
        s.begin());
    WriteVarint(0);
    WriteVarint(shared);
    WriteVarint(s.size() - shared);
    buffer_.append(s.data() + shared, s.size() - shared);
    last_new_.assign(s);
  }

  size_t size() const { return buffer_.size(); }

  /// Moves the accumulated bytes out in an exact-capacity buffer: the
  /// buffer grew by doubling, and a held checkpoint would otherwise carry
  /// up to its own size again in unused capacity. The writer is empty
  /// afterwards (the intern table too — a reused writer starts a fresh
  /// blob).
  std::string Take() {
    last_new_.clear();
    interned_.clear();
    buffer_.shrink_to_fit();
    return std::move(buffer_);
  }

 private:
  static uint64_t ZigZag(int64_t v) {
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
  }

  void WriteVarint(uint64_t v) {
    while (v >= 0x80) {
      buffer_.push_back(static_cast<char>(v | 0x80));
      v >>= 7;
    }
    buffer_.push_back(static_cast<char>(v));
  }

  std::string buffer_;
  std::unordered_map<std::string, size_t> interned_;
  std::string last_new_;  // the previous first occurrence
};

/// \brief Sequential reader over a blob produced by BlobWriter.
///
/// Fails closed: a read past the end, a corrupt varint, a dangling
/// string back-reference or a shared prefix longer than the previous
/// string turns `ok()` false in every build type, and from then on every
/// read returns a zero value, so decoders surface malformed input as a
/// Status. Decode loops over a decoded count also stop once `ok()` turns
/// false, and counts that size an allocation come from ReadCount().
class BlobReader {
 public:
  explicit BlobReader(std::string_view data) : data_(data) {}

  uint8_t ReadU8() {
    if (!Require(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }
  bool ReadBool() { return ReadU8() != 0; }

  uint32_t ReadU32() { return static_cast<uint32_t>(ReadVarint()); }
  int32_t ReadI32() { return static_cast<int32_t>(UnZigZag(ReadVarint())); }
  uint64_t ReadU64() { return ReadVarint(); }
  int64_t ReadI64() { return UnZigZag(ReadVarint()); }

  /// An element count written with WriteU64. Every encoded element takes
  /// at least one byte, so a count above remaining() can only come from
  /// a corrupt blob: it fails the reader and returns 0, which keeps a
  /// flipped length byte from sizing a huge allocation.
  uint64_t ReadCount() {
    const uint64_t n = ReadVarint();
    if (n > remaining()) {
      Fail();
      return 0;
    }
    return n;
  }

  double ReadF64() {
    if (!Require(8)) return 0;
    uint64_t bits = 0;
    for (size_t i = 0; i < sizeof(bits); ++i) {
      bits |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
              << (8 * i);
    }
    pos_ += sizeof(bits);
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string ReadString() { return std::string(ReadStringView()); }

  /// ReadString without the copy: the view points into the reader's
  /// string arena, so it is valid while the reader is (not merely while
  /// the blob is). A first occurrence is rebuilt there from the previous
  /// one's prefix and its own suffix; a repeat returns the same view.
  std::string_view ReadStringView() {
    const uint64_t tag = ReadVarint();
    if (tag != 0) {
      if (tag > interned_.size()) {
        Fail();
        return {};
      }
      return interned_[tag - 1];
    }
    const std::string_view previous =
        interned_.empty() ? std::string_view() : interned_.back();
    const uint64_t shared = ReadVarint();
    if (shared > previous.size()) {
      Fail();
      return {};
    }
    const uint64_t suffix = ReadVarint();
    if (!Require(suffix)) return {};
    const std::string_view s = Store(previous.substr(0, shared),
                                     data_.substr(pos_, suffix));
    pos_ += suffix;
    interned_.push_back(s);
    return s;
  }

  /// False after any failed read.
  bool ok() const { return ok_; }
  /// True when every byte has been consumed (format sanity check).
  bool exhausted() const { return ok_ && pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  static int64_t UnZigZag(uint64_t v) {
    return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }

  uint64_t ReadVarint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (!Require(1)) return 0;
      const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    Fail();  // > 10 continuation bytes: corrupt varint
    return 0;
  }

  // Failure is sticky: once a read failed, every later read returns a
  // zero value, so decoded counts after it are 0. The bound is written
  // as a subtraction: `pos_ + n` wraps for a corrupt length.
  bool Require(uint64_t n) {
    if (!ok_ || n > data_.size() - pos_) {
      Fail();
      return false;
    }
    return true;
  }

  void Fail() { ok_ = false; }

  // Copies `prefix` + `suffix` into the arena. Chunks are never resized
  // or freed before the reader, so every view handed out stays valid; a
  // string longer than a chunk gets a chunk of its own.
  std::string_view Store(std::string_view prefix, std::string_view suffix) {
    const size_t n = prefix.size() + suffix.size();
    if (n == 0) return {};
    if (n > chunk_left_) {
      const size_t size = std::max(n, kArenaChunk);
      chunks_.push_back(std::make_unique_for_overwrite<char[]>(size));
      chunk_next_ = chunks_.back().get();
      chunk_left_ = size;
    }
    char* out = chunk_next_;
    if (!prefix.empty()) std::memcpy(out, prefix.data(), prefix.size());
    if (!suffix.empty()) {
      std::memcpy(out + prefix.size(), suffix.data(), suffix.size());
    }
    chunk_next_ += n;
    chunk_left_ -= n;
    return std::string_view(out, n);
  }

  static constexpr size_t kArenaChunk = 64 * 1024;

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::vector<std::string_view> interned_;
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* chunk_next_ = nullptr;
  size_t chunk_left_ = 0;
};

}  // namespace autocomp::common
