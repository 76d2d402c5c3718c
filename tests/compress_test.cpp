// Unit tests for the codec implementations: exact behaviours, containers,
// edge cases. Broad randomized round-trips live in compress_property_test.
#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "compress/deflate_lite.hpp"
#include "compress/huffman.hpp"
#include "compress/lz77.hpp"
#include "compress/lz78.hpp"
#include "compress/lzma_lite.hpp"
#include "compress/registry.hpp"
#include "compress/rle.hpp"
#include "compress/stats.hpp"
#include "compress/xmatch_detail.hpp"
#include "compress/xmatchpro.hpp"

namespace uparc::compress {
namespace {

Bytes ascii(const char* s) { return Bytes(s, s + std::string(s).size()); }

void expect_roundtrip(const Codec& codec, const Bytes& input) {
  Bytes c = codec.compress(input);
  auto d = codec.decompress(c);
  ASSERT_TRUE(d.ok()) << codec.name() << ": " << d.error().message;
  EXPECT_EQ(d.value(), input) << codec.name();
}

TEST(Container, WrapUnwrapRoundTrip) {
  Bytes payload = {1, 2, 3};
  Bytes c = wire::wrap(CodecId::kRle, 1000, payload);
  auto u = wire::unwrap(CodecId::kRle, c);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u.value().original_size, 1000u);
  EXPECT_EQ(u.value().payload.size(), 3u);
}

TEST(Container, RejectsWrongCodec) {
  Bytes c = wire::wrap(CodecId::kRle, 10, {});
  EXPECT_FALSE(wire::unwrap(CodecId::kLz77, c).ok());
  Bytes tiny = {0xC5};
  EXPECT_FALSE(wire::unwrap(CodecId::kRle, tiny).ok());
  c[0] = 0;
  EXPECT_FALSE(wire::unwrap(CodecId::kRle, c).ok());
}

TEST(Rle, CompressesRuns) {
  RleCodec rle;
  Bytes input(1000, 0x00);
  Bytes c = rle.compress(input);
  EXPECT_LT(c.size(), 40u);  // ~4 runs of 255 + container
  expect_roundtrip(rle, input);
}

TEST(Rle, HandlesEscapeByte) {
  RleCodec rle;
  Bytes input = {RleCodec::kEscape, RleCodec::kEscape, 0x01, RleCodec::kEscape};
  expect_roundtrip(rle, input);
  Bytes runs(10, RleCodec::kEscape);
  expect_roundtrip(rle, runs);
}

TEST(Rle, EmptyAndSingleByte) {
  RleCodec rle;
  expect_roundtrip(rle, {});
  expect_roundtrip(rle, {0x42});
}

TEST(Rle, RejectsTruncatedStream) {
  RleCodec rle;
  Bytes c = rle.compress(Bytes(100, 7));
  c.pop_back();
  EXPECT_FALSE(rle.decompress(c).ok());
}

TEST(Lz77, CompressesRepetition) {
  Lz77Codec lz;
  Bytes input;
  for (int i = 0; i < 100; ++i) {
    input.insert(input.end(), {'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'});
  }
  Bytes c = lz.compress(input);
  EXPECT_LT(c.size(), input.size() / 4);
  expect_roundtrip(lz, input);
}

TEST(Lz77, MatchBeyondWindowNotUsed) {
  // Distance > window forces literals for the second copy's start.
  Lz77Codec lz(Lz77Params{.offset_bits = 8, .length_bits = 4, .min_match = 3});  // 256 B window
  Bytes input(600, 0x11);
  input[0] = 0x22;
  input[599] = 0x33;
  expect_roundtrip(lz, input);
}

TEST(Lz77, RejectsBadParamsAndCorruption) {
  EXPECT_THROW(Lz77Codec(Lz77Params{.offset_bits = 2, .length_bits = 4, .min_match = 3}),
               std::invalid_argument);
  Lz77Codec lz;
  Bytes c = lz.compress(ascii("hello hello hello hello"));
  Bytes truncated(c.begin(), c.begin() + static_cast<std::ptrdiff_t>(c.size() - 2));
  EXPECT_FALSE(lz.decompress(truncated).ok());
}

TEST(Lz78, BuildsPhrases) {
  Lz78Codec lz;
  Bytes input = ascii("abababababababababababababab");
  Bytes c = lz.compress(input);
  EXPECT_LT(c.size(), input.size());
  expect_roundtrip(lz, input);
}

TEST(Lz78, EndsExactlyOnKnownPhrase) {
  Lz78Codec lz;
  // "ab ab" — the final "ab" is already a dictionary phrase.
  expect_roundtrip(lz, ascii("abab"));
  expect_roundtrip(lz, ascii("aaaa"));
  expect_roundtrip(lz, ascii("a"));
  expect_roundtrip(lz, {});
}

TEST(Lz78, SmallDictionaryResets) {
  Lz78Codec lz(256);
  Bytes input;
  Prng rng(9);
  for (int i = 0; i < 5000; ++i) input.push_back(static_cast<u8>(rng.below(16)));
  expect_roundtrip(lz, input);
  EXPECT_THROW(Lz78Codec(4), std::invalid_argument);
}

TEST(Huffman, SkewedDistributionCompresses) {
  HuffmanCodec h;
  Bytes input(4000, 0x00);
  for (std::size_t i = 0; i < input.size(); i += 7) input[i] = 0x55;
  Bytes c = h.compress(input);
  EXPECT_LT(c.size(), input.size() / 2);
  expect_roundtrip(h, input);
}

TEST(Huffman, UniformDataDoesNotExplode) {
  HuffmanCodec h;
  Bytes input(4096);
  Prng rng(11);
  for (auto& b : input) b = rng.byte();
  Bytes c = h.compress(input);
  EXPECT_LT(c.size(), input.size() + 200);  // header + ~8 bits/byte
  expect_roundtrip(h, input);
}

TEST(Huffman, SingleSymbolAlphabet) {
  HuffmanCodec h;
  expect_roundtrip(h, Bytes(100, 0x7F));
  expect_roundtrip(h, {});
}

TEST(CanonicalCodeTest, KraftInequalityHolds) {
  std::vector<u64> freqs(256, 0);
  Prng rng(5);
  for (int i = 0; i < 256; ++i) freqs[static_cast<std::size_t>(i)] = rng.below(1000);
  auto lengths = CanonicalCode::build_lengths(freqs);
  double kraft = 0.0;
  for (u8 l : lengths) {
    if (l > 0) kraft += std::pow(2.0, -static_cast<double>(l));
  }
  EXPECT_LE(kraft, 1.0 + 1e-12);
  // Non-zero freq symbols must all have codes.
  for (std::size_t s = 0; s < 256; ++s) {
    if (freqs[s] > 0) {
      EXPECT_GT(lengths[s], 0u);
    }
  }
}

TEST(CanonicalCodeTest, RespectsLengthLimit) {
  // Exponential frequencies force deep trees without a limit.
  std::vector<u64> freqs(32, 0);
  u64 f = 1;
  for (std::size_t s = 0; s < 32; ++s) {
    freqs[s] = f;
    f = f * 2 + 1;
  }
  auto lengths = CanonicalCode::build_lengths(freqs, 10);
  for (u8 l : lengths) EXPECT_LE(l, 10u);
}

TEST(XMatch, ZeroRunsFoldViaRli) {
  XMatchProCodec x;
  Bytes input(4096, 0x00);
  Bytes c = x.compress(input);
  // 1024 zero tuples fold into ceil(1024/15) 6-bit RLI records.
  EXPECT_LT(c.size(), 70u);
  expect_roundtrip(x, input);
}

TEST(XMatch, TupleRepetitionFullMatches) {
  XMatchProCodec x;
  Bytes input;
  for (int i = 0; i < 500; ++i) input.insert(input.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  Bytes c = x.compress(input);
  EXPECT_LT(c.size(), input.size() / 6);
  expect_roundtrip(x, input);
}

TEST(XMatch, PartialMatchesShareBytes) {
  XMatchProCodec x;
  Bytes input;
  Prng rng(3);
  // Tuples share 3 of 4 bytes: partial matches dominate.
  for (int i = 0; i < 500; ++i) {
    input.insert(input.end(), {0x12, 0x34, 0x56, rng.byte()});
  }
  Bytes c = x.compress(input);
  // A 3-of-4 partial match costs ~19 bits against 32 literal bits.
  EXPECT_LT(c.size(), input.size() * 2 / 3);
  expect_roundtrip(x, input);
}

TEST(XMatch, UnalignedTailPreserved) {
  XMatchProCodec x;
  expect_roundtrip(x, ascii("abcde"));       // 5 bytes: one tuple + 1
  expect_roundtrip(x, ascii("ab"));          // sub-tuple input
  expect_roundtrip(x, {});
}

TEST(XMatch, PackedMatchMaskAgreesWithBytewiseCompare) {
  Prng rng(21);
  for (int trial = 0; trial < 20000; ++trial) {
    u8 a[4];
    u8 b[4];
    for (int i = 0; i < 4; ++i) {
      a[i] = rng.byte();
      // Equal bytes, near misses (one bit apart, 0x00 vs 0x80) and noise.
      const u64 pick = rng.below(4);
      b[i] = pick == 0 ? a[i] : pick == 1 ? static_cast<u8>(a[i] ^ (1u << rng.below(8)))
                                          : pick == 2 ? static_cast<u8>(a[i] ^ 0x80) : rng.byte();
    }
    u8 expected = 0;
    for (int i = 0; i < 4; ++i) {
      if (a[i] == b[i]) expected |= static_cast<u8>(1u << (3 - i));
    }
    ASSERT_EQ(xm::match_mask(load_be32(a), load_be32(b)), expected) << "trial " << trial;
  }
}

TEST(XMatch, DictionaryDepthValidated) {
  EXPECT_THROW(XMatchProCodec(1), std::invalid_argument);
  EXPECT_THROW(XMatchProCodec(4096), std::invalid_argument);
  XMatchProCodec big(64);
  Bytes input;
  Prng rng(8);
  for (int i = 0; i < 2000; ++i) input.push_back(static_cast<u8>(rng.below(8) * 16));
  expect_roundtrip(big, input);
}

TEST(DeflateLite, CompressesStructuredData) {
  DeflateLiteCodec z;
  Bytes input;
  for (int i = 0; i < 200; ++i) {
    input.insert(input.end(),
                 {0x00, 0x00, 0x8F, 0x10, 0x00, 0x00, 0x8F, 0x11, 0xAA, 0x00});
  }
  Bytes c = z.compress(input);
  EXPECT_LT(c.size(), input.size() / 5);
  expect_roundtrip(z, input);
}

TEST(DeflateLite, EmptyAndTinyInputs) {
  DeflateLiteCodec z;
  expect_roundtrip(z, {});
  expect_roundtrip(z, {0x42});
  expect_roundtrip(z, ascii("ab"));
}

TEST(DeflateLite, LongMatchesUseLength258) {
  DeflateLiteCodec z;
  Bytes input(10'000, 0x77);
  Bytes c = z.compress(input);
  EXPECT_LT(c.size(), 400u);
  expect_roundtrip(z, input);
}

TEST(LzmaLite, AdaptiveCoderBeatsNothing) {
  LzmaLiteCodec l;
  Bytes input;
  for (int i = 0; i < 300; ++i) {
    input.insert(input.end(), {0x00, 0x00, 0x8F, 0x10, 0x00, 0x00, 0x8F, 0x11});
  }
  Bytes c = l.compress(input);
  EXPECT_LT(c.size(), input.size() / 5);
  expect_roundtrip(l, input);
}

TEST(LzmaLite, EmptyAndTinyInputs) {
  LzmaLiteCodec l;
  expect_roundtrip(l, {});
  expect_roundtrip(l, {0x01});
  expect_roundtrip(l, ascii("xyz"));
}

TEST(LzmaLite, RepDistanceCapturesStrides) {
  LzmaLiteCodec l;
  // 164-byte strided repetition with point noise — frame-like.
  Bytes unit(164);
  Prng rng(17);
  for (auto& b : unit) b = static_cast<u8>(rng.below(4) * 64);
  Bytes input;
  for (int i = 0; i < 100; ++i) {
    Bytes copy = unit;
    copy[rng.below(copy.size())] = rng.byte();
    input.insert(input.end(), copy.begin(), copy.end());
  }
  Bytes c = l.compress(input);
  EXPECT_LT(c.size(), input.size() / 4);
  expect_roundtrip(l, input);
}

TEST(Registry, ConstructsAllTable1Codecs) {
  auto codecs = table1_codecs();
  ASSERT_EQ(codecs.size(), 7u);
  EXPECT_EQ(codecs[0]->name(), "RLE");
  EXPECT_EQ(codecs[3]->name(), "X-MatchPRO");
  EXPECT_EQ(codecs[6]->name(), "7-zip(lzma)");
}

TEST(Registry, LookupByName) {
  EXPECT_NE(make_codec("Zip"), nullptr);
  EXPECT_NE(make_codec("X-MatchPRO"), nullptr);
  EXPECT_EQ(make_codec("Brotli"), nullptr);
}

TEST(Registry, IdentifiesContainers) {
  XMatchProCodec x;
  Bytes c = x.compress(ascii("some data to compress here"));
  auto codec = codec_for_container(c);
  ASSERT_NE(codec, nullptr);
  EXPECT_EQ(codec->id(), CodecId::kXMatchPro);
  EXPECT_EQ(codec_for_container(Bytes{1, 2, 3}), nullptr);
}

TEST(Stats, RatioConvention) {
  // 4x smaller => 75% ratio in the paper's convention.
  CompressionSample s{1000, 250};
  EXPECT_DOUBLE_EQ(s.ratio_percent(), 75.0);
  EXPECT_DOUBLE_EQ(s.reduction_factor(), 4.0);
}

TEST(Stats, MeasureVerifiedDetectsGoodCodecs) {
  RleCodec rle;
  Bytes input(500, 0xAA);
  auto sample = measure_verified(rle, input);
  EXPECT_EQ(sample.original_bytes, 500u);
  EXPECT_LT(sample.compressed_bytes, 100u);
}

TEST(Stats, AccumulatorWeightsBySize) {
  RatioAccumulator acc;
  acc.add({1000, 500});  // 50%
  acc.add({3000, 600});  // 80%
  EXPECT_NEAR(acc.ratio_percent(), (1.0 - 1100.0 / 4000.0) * 100.0, 1e-9);
  EXPECT_EQ(acc.sample_count(), 2u);
}

TEST(AllCodecs, HardwareProfilesSane) {
  for (const auto& codec : table1_codecs()) {
    auto hw = codec->hardware();
    EXPECT_GT(hw.fmax.in_mhz(), 0.0) << codec->name();
    EXPECT_GT(hw.words_per_cycle, 0.0) << codec->name();
    EXPECT_GT(hw.slices_v5, 0u) << codec->name();
  }
  // Paper Table II: the X-MatchPRO decompressor is 1035/900 slices.
  XMatchProCodec x;
  EXPECT_EQ(x.hardware().slices_v5, 1035u);
  EXPECT_EQ(x.hardware().slices_v6, 900u);
  EXPECT_NEAR(x.hardware().fmax.in_mhz(), 126.0, 1e-9);
}

}  // namespace
}  // namespace uparc::compress
