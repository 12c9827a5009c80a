// Compact byte-oriented serialization.
//
// Every message that crosses the simulated abstract MAC layer is encoded to a
// byte Buffer. Working at the byte level (rather than passing typed structs
// through the simulator) buys three things the reproduction needs:
//   1. message-size accounting — the paper restricts messages to a constant
//      number of O(log n)-bit ids, and our tests assert the wire sizes;
//   2. state digesting — indistinguishability experiments (Lemma 3.6) hash
//      exactly what a node could observe;
//   3. honest wire formats — no accidental sharing of typed state between
//      simulated nodes.
//
// Integers use LEB128-style varint encoding so that small ids/counts cost one
// byte, which keeps the O(log n) accounting faithful.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace amac::util {

/// Wire representation of a message payload.
using Buffer = std::vector<std::uint8_t>;

/// Serializes values into a Buffer. Append-only between clear()s.
class Writer {
 public:
  Writer() = default;

  /// Empties the buffer but keeps its capacity, so a Writer kept as a
  /// scratch member re-encodes without allocating once it has grown.
  void clear() { buf_.clear(); }

  /// Grows the capacity to at least `bytes` up front, so a fresh Writer
  /// that knows its likely size allocates once instead of growing.
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  /// Unsigned varint (LEB128). 1 byte for values < 128.
  void put_uvarint(std::uint64_t v);

  /// Signed varint via zigzag encoding.
  void put_svarint(std::int64_t v);

  /// Single raw byte.
  void put_u8(std::uint8_t v);

  /// Boolean as one byte (0/1).
  void put_bool(bool v);

  /// Length-prefixed byte string.
  void put_bytes(const Buffer& b);

  /// Length-prefixed UTF-8 string.
  void put_string(const std::string& s);

  [[nodiscard]] const Buffer& buffer() const { return buf_; }
  [[nodiscard]] Buffer take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  Buffer buf_;
};

/// Deserializes values from a byte range. Throws nothing; malformed input
/// is a programming error in this closed system, so it trips an assertion.
///
/// A Reader never owns its bytes: it reads over a (pointer, size) pair. A
/// Reader, and every view get_view() returns, lives only as long as the
/// bytes it reads — never keep one past the Buffer it was made from.
class Reader {
 public:
  explicit Reader(const Buffer& buf) : Reader(buf.data(), buf.size()) {}

  [[nodiscard]] std::uint64_t get_uvarint();
  [[nodiscard]] std::int64_t get_svarint();
  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] bool get_bool();
  [[nodiscard]] Buffer get_bytes();
  [[nodiscard]] std::string get_string();

  /// Reads a length-prefixed byte string (the put_bytes format) as a
  /// sub-reader over the same bytes instead of a copy. Same bounds
  /// assertions as get_bytes.
  [[nodiscard]] Reader get_view();

  /// True when every byte has been consumed.
  [[nodiscard]] bool exhausted() const { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  /// Consumes a length prefix and asserts that many bytes remain.
  [[nodiscard]] std::size_t get_length();

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace amac::util
