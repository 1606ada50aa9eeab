// Bounds-checked little-endian byte codec for checkpoint snapshots.
//
// Checkpoints must survive hostile bytes: a loader fed a truncated or
// bit-flipped file has to fail with an exception, never with UB, and
// never after mutating any live state.  So the reader checks every
// access against the buffer end and throws CodecError; the writer is a
// plain append-only buffer.  All integers are fixed-width little-endian
// (encoded byte-by-byte, so the host's endianness never matters);
// doubles travel as their IEEE-754 bit pattern, which round-trips NaNs
// and signed zeros exactly — a checkpoint is a bit-level photograph,
// not a decimal rendering.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sensedroid::fault {

/// Thrown on any malformed read (truncation, oversized length prefix).
class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only encoder.  An encoder that knows its size up front (see
/// ByteCounter) reserves once and may patch fixed-width header fields
/// after the body is written.
class ByteWriter {
 public:
  void reserve(std::size_t n) { buf_.reserve(n); }
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  /// Length-prefixed (u64) nested blob.
  void blob(std::span<const std::uint8_t> b) {
    u64(b.size());
    bytes(b);
  }
  /// Length-prefixed (u64) UTF-8 string.
  void str(std::string_view s) {
    u64(s.size());
    for (char c : s) buf_.push_back(static_cast<std::uint8_t>(c));
  }

  /// Overwrites bytes [at, at + 4) / [at, at + 8) already written.
  void patch_u32(std::size_t at, std::uint32_t v) { patch(at, v, 4); }
  void patch_u64(std::size_t at, std::uint64_t v) { patch(at, v, 8); }

  const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  void patch(std::size_t at, std::uint64_t v, std::size_t width) {
    if (at > buf_.size() || width > buf_.size() - at) {
      throw std::out_of_range("ByteWriter: patch past the end");
    }
    for (std::size_t i = 0; i < width; ++i) {
      buf_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Same interface as ByteWriter, but only counts the bytes it would
/// append: one pass of an encoder over a ByteCounter sizes the buffer
/// the real pass then writes without reallocating.
class ByteCounter {
 public:
  void u8(std::uint8_t) { n_ += 1; }
  void u32(std::uint32_t) { n_ += 4; }
  void u64(std::uint64_t) { n_ += 8; }
  void f64(double) { n_ += 8; }
  void boolean(bool) { n_ += 1; }
  void bytes(std::span<const std::uint8_t> b) { n_ += b.size(); }
  void blob(std::span<const std::uint8_t> b) { n_ += 8 + b.size(); }
  void str(std::string_view s) { n_ += 8 + s.size(); }

  std::size_t size() const noexcept { return n_; }

 private:
  std::size_t n_ = 0;
};

/// Bounds-checked decoder over a borrowed buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> buf) : buf_(buf) {}

  std::uint8_t u8() {
    need(1);
    return buf_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
    }
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw CodecError("ByteReader: bool byte not 0/1");
    return v == 1;
  }
  /// Length-prefixed nested blob; the returned span borrows this buffer.
  std::span<const std::uint8_t> blob() {
    const std::uint64_t n = u64();
    need(n);
    auto out = buf_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return out;
  }
  /// Length-prefixed string.
  std::string str() {
    const auto b = blob();
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }
  /// A count prefix for a container about to be decoded element-wise.
  /// Rejects counts that could not possibly fit in the remaining bytes
  /// (each element costs >= min_element_bytes), so a corrupted length
  /// cannot drive a multi-gigabyte reserve.
  std::size_t count(std::size_t min_element_bytes) {
    const std::uint64_t n = u64();
    if (min_element_bytes > 0 && n > remaining() / min_element_bytes) {
      throw CodecError("ByteReader: element count exceeds buffer");
    }
    return static_cast<std::size_t>(n);
  }

  std::size_t remaining() const noexcept { return buf_.size() - pos_; }
  bool exhausted() const noexcept { return pos_ == buf_.size(); }
  /// Declares the message complete: trailing garbage is corruption.
  void expect_end() const {
    if (!exhausted()) throw CodecError("ByteReader: trailing bytes");
  }

 private:
  void need(std::uint64_t n) const {
    if (n > remaining()) {
      throw CodecError("ByteReader: truncated at byte " +
                       std::to_string(pos_));
    }
  }

  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace sensedroid::fault
