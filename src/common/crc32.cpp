#include "common/crc32.hpp"

namespace uparc {
namespace detail {
namespace {

constexpr u32 kPoly = 0xEDB88320u;  // reflected IEEE 802.3 polynomial

constexpr std::array<std::array<u32, 256>, 8> make_tables() {
  std::array<std::array<u32, 256>, 8> t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (u32 i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  }
  return t;
}

}  // namespace

constexpr std::array<std::array<u32, 256>, 8> kCrcTables = make_tables();

}  // namespace detail

namespace {

/// One slicing-by-8 step: `lo` and `hi` are the next eight stream bytes as
/// two little-endian words, `lo` first.
u32 step8(u32 state, u32 lo, u32 hi) noexcept {
  const auto& t = detail::kCrcTables;
  const u32 c = state ^ lo;
  return t[7][c & 0xFFu] ^ t[6][(c >> 8) & 0xFFu] ^ t[5][(c >> 16) & 0xFFu] ^ t[4][c >> 24] ^
         t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
}

u32 load_le(const u8* p) noexcept {
  return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
         (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
}

}  // namespace

void Crc32::update(BytesView bytes) noexcept {
  const u8* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; n -= 8, p += 8) state_ = step8(state_, load_le(p), load_le(p + 4));
  for (; n > 0; --n) update(*p++);
}

u32 crc32(BytesView bytes) noexcept {
  Crc32 c;
  c.update(bytes);
  return c.value();
}

u32 crc32_words(WordsView words) noexcept {
  u32 state = 0xFFFFFFFFu;
  std::size_t i = 0;
  for (; i + 2 <= words.size(); i += 2) {
    state = step8(state, __builtin_bswap32(words[i]), __builtin_bswap32(words[i + 1]));
  }
  if (i < words.size()) state = detail::crc_step4(state, __builtin_bswap32(words[i]));
  return ~state;
}

}  // namespace uparc
