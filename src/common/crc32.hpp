// CRC-32 (IEEE 802.3 polynomial) used to protect bitstream payloads, mirroring
// the CRC packets a Xilinx bitstream carries.
#pragma once

#include <array>

#include "common/types.hpp"

namespace uparc {

namespace detail {
/// Slicing-by-8 tables of the reflected polynomial: [0] is the classic
/// byte table, [k][i] advances [k-1][i] by one more zero byte.
extern const std::array<std::array<u32, 256>, 8> kCrcTables;

/// One slicing-by-4 step: `le` is the next four stream bytes as a
/// little-endian word.
inline u32 crc_step4(u32 state, u32 le) noexcept {
  const u32 c = state ^ le;
  return kCrcTables[3][c & 0xFFu] ^ kCrcTables[2][(c >> 8) & 0xFFu] ^
         kCrcTables[1][(c >> 16) & 0xFFu] ^ kCrcTables[0][c >> 24];
}
}  // namespace detail

/// Streaming CRC-32; feed bytes or words, then read `value()`.
class Crc32 {
 public:
  Crc32() = default;

  void update(u8 byte) noexcept {
    state_ = detail::kCrcTables[0][(state_ ^ byte) & 0xFFu] ^ (state_ >> 8);
  }
  void update(BytesView bytes) noexcept;
  /// Feeds a 32-bit word in big-endian byte order (bitstream word order):
  /// one slicing-by-4 step on the byte-swapped word.
  void update_word(u32 word) noexcept {
    state_ = detail::crc_step4(state_, __builtin_bswap32(word));
  }

  [[nodiscard]] u32 value() const noexcept { return ~state_; }
  void reset() noexcept { state_ = 0xFFFFFFFFu; }

 private:
  u32 state_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32 of a byte buffer.
[[nodiscard]] u32 crc32(BytesView bytes) noexcept;
/// One-shot CRC-32 of a word stream (big-endian word bytes).
[[nodiscard]] u32 crc32_words(WordsView words) noexcept;

}  // namespace uparc
