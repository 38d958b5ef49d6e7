#include "util/codec.hpp"

#include <bit>
#include <cstring>

namespace ftvod::util {

namespace {

template <typename T>
void put_le(Bytes& buf, T v) {
  static_assert(std::is_unsigned_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buf.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
  }
}

template <typename T>
T get_le(const std::byte* p) {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(std::to_integer<std::uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

void Writer::u8(std::uint8_t v) { put_le(buf_, v); }
void Writer::u16(std::uint16_t v) { put_le(buf_, v); }
void Writer::u32(std::uint32_t v) { put_le(buf_, v); }
void Writer::u64(std::uint64_t v) { put_le(buf_, v); }
void Writer::i32(std::int32_t v) { put_le(buf_, static_cast<std::uint32_t>(v)); }
void Writer::i64(std::int64_t v) { put_le(buf_, static_cast<std::uint64_t>(v)); }
void Writer::f64(double v) { put_le(buf_, std::bit_cast<std::uint64_t>(v)); }
void Writer::boolean(bool v) { u8(v ? 1 : 0); }

void Writer::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  const auto* p = reinterpret_cast<const std::byte*>(v.data());
  buf_.insert(buf_.end(), p, p + v.size());
}

void Writer::blob(std::span<const std::byte> v) {
  u32(static_cast<std::uint32_t>(v.size()));
  raw(v);
}

void Writer::raw(std::span<const std::byte> v) {
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void Writer::patch_u32(std::size_t pos, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    buf_.at(pos + i) = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

const std::byte* Reader::need(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return nullptr;
  }
  const std::byte* p = data_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t Reader::u8() {
  const auto* p = need(1);
  return p ? get_le<std::uint8_t>(p) : 0;
}

std::uint16_t Reader::u16() {
  const auto* p = need(2);
  return p ? get_le<std::uint16_t>(p) : 0;
}

std::uint32_t Reader::u32() {
  const auto* p = need(4);
  return p ? get_le<std::uint32_t>(p) : 0;
}

std::uint64_t Reader::u64() {
  const auto* p = need(8);
  return p ? get_le<std::uint64_t>(p) : 0;
}

std::int32_t Reader::i32() { return static_cast<std::int32_t>(u32()); }
std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }
double Reader::f64() { return std::bit_cast<double>(u64()); }
bool Reader::boolean() { return u8() != 0; }

std::string Reader::str() { return std::string(str_view()); }

Bytes Reader::blob() {
  const auto v = blob_view();
  return Bytes(v.begin(), v.end());
}

std::string_view Reader::str_view() {
  const auto v = blob_view();
  return {reinterpret_cast<const char*>(v.data()), v.size()};
}

std::span<const std::byte> Reader::blob_view() {
  const std::uint32_t n = u32();
  const auto* p = need(n);
  if (p == nullptr) return {};
  return {p, n};
}

}  // namespace ftvod::util
