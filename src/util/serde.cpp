#include "util/serde.hpp"

namespace amac::util {

void Writer::put_uvarint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::put_svarint(std::int64_t v) {
  // Zigzag: small magnitudes (of either sign) get small encodings.
  const auto u = (static_cast<std::uint64_t>(v) << 1) ^
                 static_cast<std::uint64_t>(v >> 63);
  put_uvarint(u);
}

void Writer::put_u8(std::uint8_t v) { buf_.push_back(v); }

void Writer::put_bool(bool v) { buf_.push_back(v ? 1 : 0); }

void Writer::put_bytes(const Buffer& b) {
  put_uvarint(b.size());
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void Writer::put_string(const std::string& s) {
  put_uvarint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

std::uint64_t Reader::get_uvarint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    AMAC_ASSERT(pos_ < size_);
    const std::uint8_t byte = data_[pos_++];
    AMAC_ASSERT(shift < 64);
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

std::int64_t Reader::get_svarint() {
  const std::uint64_t u = get_uvarint();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

std::uint8_t Reader::get_u8() {
  AMAC_ASSERT(pos_ < size_);
  return data_[pos_++];
}

bool Reader::get_bool() { return get_u8() != 0; }

std::size_t Reader::get_length() {
  const std::size_t len = get_uvarint();
  AMAC_ASSERT(len <= remaining());
  return len;
}

Buffer Reader::get_bytes() {
  const std::size_t len = get_length();
  Buffer out(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return out;
}

std::string Reader::get_string() {
  const std::size_t len = get_length();
  std::string out(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return out;
}

Reader Reader::get_view() {
  const std::size_t len = get_length();
  const Reader view(data_ + pos_, len);
  pos_ += len;
  return view;
}

}  // namespace amac::util
