#include "compress/xmatchpro.hpp"

#include <bit>
#include <stdexcept>
#include <vector>

#include "compress/xmatch_detail.hpp"

namespace uparc::compress {

using xm::Dictionary;
using xm::Tuple;

XMatchProCodec::XMatchProCodec(std::size_t dict_entries) : dict_entries_(dict_entries) {
  if (dict_entries_ < 2 || dict_entries_ > 1024) {
    throw std::invalid_argument("XMatchPro dictionary depth out of range");
  }
}

Bytes XMatchProCodec::compress(BytesView input) const {
  // Tuple-align by padding; the container header preserves the true size.
  const Words tuples = bytes_to_words(input);

  BitWriter bw;
  Dictionary dict(dict_entries_);
  std::size_t i = 0;
  while (i < tuples.size()) {
    const Tuple t = tuples[i];

    // RLI: fold runs of all-zero tuples.
    if (t == 0) {
      std::size_t run = 1;
      while (i + run < tuples.size() && run < xm::kMaxZeroRun && tuples[i + run] == 0) {
        ++run;
      }
      bw.put_bit(false);  // match path
      bw.put_bit(true);   // RLI escape
      bw.put(static_cast<u32>(run), xm::kRliBits);
      i += run;
      continue;
    }

    // CAM search: best = most matched bytes, ties to lowest location.
    int best_loc = -1;
    int best_bits = -1;
    u8 best_mask = 0;
    for (std::size_t loc = 0; loc < dict.size(); ++loc) {
      const u8 mask = xm::match_mask(dict.at(loc), t);
      const int match_count = std::popcount(mask);
      if (match_count >= 3 && match_count > best_bits) {
        best_bits = match_count;
        best_loc = static_cast<int>(loc);
        best_mask = mask;
        if (match_count == 4) break;
      }
    }

    if (best_loc >= 0) {
      bw.put_bit(false);  // match path
      bw.put_bit(false);  // not RLI
      xm::put_phased(bw, static_cast<u32>(best_loc), static_cast<u32>(dict.size()));
      xm::put_type(bw, xm::mask_index(best_mask));
      xm::put_unmatched(bw, t, best_mask);
      if (best_mask == 0b1111) {
        dict.promote(static_cast<std::size_t>(best_loc));
      } else {
        dict.insert(t);
      }
    } else {
      bw.put_bit(true);  // miss: 4 literal bytes
      bw.put(t, 32);
      dict.insert(t);
    }
    ++i;
  }
  return wire::wrap(id(), input.size(), bw.finish());
}

Result<Bytes> XMatchProCodec::decompress(BytesView input) const {
  auto un = wire::unwrap(id(), input);
  if (!un.ok()) return un.error();
  const auto [original, payload] = un.value();

  Bytes out;
  out.reserve(original + 4);
  Dictionary dict(dict_entries_);
  BitReader br(payload);

  auto emit = [&](Tuple t) {
    for (int b = 3; b >= 0; --b) out.push_back(static_cast<u8>(t >> (8 * b)));
  };

  try {
    while (out.size() < original) {
      if (br.get_bit()) {  // miss
        const Tuple t = br.get(32);
        emit(t);
        dict.insert(t);
        continue;
      }
      if (br.get_bit()) {  // RLI zero run
        const u32 run = br.get(xm::kRliBits);
        if (run == 0) return make_error("X-MatchPRO: zero-length RLI run");
        for (u32 r = 0; r < run; ++r) emit(0);
        continue;
      }
      const u32 loc = xm::get_phased(br, static_cast<u32>(dict.size()));
      if (loc >= dict.size()) return make_error("X-MatchPRO: location out of range");
      const int type = xm::get_type(br);
      const u8 mask = xm::kMatchMasks[static_cast<std::size_t>(type)];
      const Tuple t = xm::get_unmatched(br, dict.at(loc), mask);
      emit(t);
      if (mask == 0b1111) {
        dict.promote(loc);
      } else {
        dict.insert(t);
      }
    }
  } catch (const std::out_of_range&) {
    return make_error("X-MatchPRO: compressed stream truncated");
  } catch (const std::runtime_error& e) {
    return make_error(std::string("X-MatchPRO: ") + e.what());
  }
  out.resize(original);  // trim tuple padding
  return out;
}

}  // namespace uparc::compress
