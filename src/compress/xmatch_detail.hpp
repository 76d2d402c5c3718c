// X-MatchPRO coding internals shared by the block codec (xmatchpro.cpp) and
// the streaming decoder (streaming.cpp): match-type code table, phased
// binary location codes, the move-to-front dictionary, and the RLI field
// width. See xmatchpro.hpp for the algorithm description.
#pragma once

#include <array>
#include <bit>
#include <vector>

#include "common/bitio.hpp"
#include "common/types.hpp"

namespace uparc::compress::xm {

// A 4-byte tuple packed big-endian (`load_be32`): tuple byte 0 is the most
// significant, so match-mask bit i covers bits [8i, 8i + 8).
using Tuple = u32;

// Match-type masks: bit 3 = most significant byte matched ... bit 0 = least.
// Full match plus the four 3-of-4 partials (see xmatchpro.cpp for why the
// 2-byte partials are excluded).
inline constexpr std::array<u8, 5> kMatchMasks = {
    0b1111,                          // full
    0b1110, 0b1101, 0b1011, 0b0111,  // 3-byte partials
};

[[nodiscard]] inline int mask_index(u8 mask) {
  for (std::size_t i = 0; i < kMatchMasks.size(); ++i) {
    if (kMatchMasks[i] == mask) return static_cast<int>(i);
  }
  return -1;
}

// Static prefix code for match types: "0" = full match, "1" + 2 bits = the
// partial-match index (1..4 stored as index-1).
inline void put_type(BitWriter& bw, int type_index) {
  if (type_index == 0) {
    bw.put_bit(false);
  } else {
    bw.put_bit(true);
    bw.put(static_cast<u32>(type_index - 1), 2);
  }
}

template <typename BitSource>
[[nodiscard]] int get_type(BitSource& br) {
  if (!br.get_bit()) return 0;
  return static_cast<int>(br.get(2)) + 1;
}

// Literal bytes of a match: the bytes of `t` that `mask` does not cover,
// most significant first.
inline void put_unmatched(BitWriter& bw, Tuple t, u8 mask) {
  for (int b = 3; b >= 0; --b) {
    if (!(mask & (1u << b))) bw.put((t >> (8 * b)) & 0xFFu, 8);
  }
}

/// Returns dictionary entry `t` with its unmatched bytes read from `br`.
template <typename BitSource>
[[nodiscard]] Tuple get_unmatched(BitSource& br, Tuple t, u8 mask) {
  for (int b = 3; b >= 0; --b) {
    if (!(mask & (1u << b))) t = (t & ~(0xFFu << (8 * b))) | (br.get(8) << (8 * b));
  }
  return t;
}

// Phased binary (economy) code for values in [0, size).
inline void put_phased(BitWriter& bw, u32 value, u32 size) {
  if (size <= 1) return;  // single possibility: zero bits
  const unsigned k = std::bit_width(size - 1);  // max bits
  const u32 threshold = (1u << k) - size;       // count of short codes
  if (value < threshold) {
    bw.put(value, k - 1);
  } else {
    bw.put(value + threshold, k);
  }
}

template <typename BitSource>
[[nodiscard]] u32 get_phased(BitSource& br, u32 size) {
  if (size <= 1) return 0;
  const unsigned k = std::bit_width(size - 1);
  const u32 threshold = (1u << k) - size;
  u32 v = (k > 1) ? br.get(k - 1) : 0;
  if (v < threshold) return v;
  v = (v << 1) | (br.get_bit() ? 1u : 0u);
  return v - threshold;
}

/// Match mask of `a` against `b`: bit i set when byte i (from the least
/// significant) is equal. The XOR is zero in every equal byte; the exact
/// zero-byte test puts 0x80 in each such byte, and the multiply gathers
/// those four bits into the top nibble without carries.
[[nodiscard]] inline u8 match_mask(Tuple a, Tuple b) {
  const u32 x = a ^ b;
  const u32 zero = ~(((x & 0x7F7F7F7Fu) + 0x7F7F7F7Fu) | x | 0x7F7F7F7Fu);
  return static_cast<u8>(((zero >> 7) * 0x10204080u) >> 28);
}

/// Move-to-front dictionary shared by encoder and decoder.
class Dictionary {
 public:
  explicit Dictionary(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] Tuple at(std::size_t i) const { return entries_[i]; }

  /// Full match: move entry to front.
  void promote(std::size_t i) {
    const Tuple t = entries_[i];
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    entries_.insert(entries_.begin(), t);
  }
  /// Partial match or miss: insert the new tuple at the front.
  void insert(Tuple t) {
    entries_.insert(entries_.begin(), t);
    if (entries_.size() > capacity_) entries_.pop_back();
  }

 private:
  std::size_t capacity_;
  std::vector<Tuple> entries_;
};

// RLI run counter width matches a small hardware counter (4 bits).
inline constexpr std::size_t kMaxZeroRun = 15;
inline constexpr unsigned kRliBits = 4;

/// Worst-case record length in bits: miss flag + 4 literal bytes.
inline constexpr std::size_t kMaxRecordBits = 1 + 32 + 16;

}  // namespace uparc::compress::xm
