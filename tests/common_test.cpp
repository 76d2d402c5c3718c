// Unit tests for the support library: units, results, CRC, bit I/O, PRNG.
#include <gtest/gtest.h>

#include "bitstream/packet.hpp"
#include "common/bitio.hpp"
#include "common/crc32.hpp"
#include "common/hexdump.hpp"
#include "common/prng.hpp"
#include "common/result.hpp"
#include "common/units.hpp"

namespace uparc {
namespace {

using namespace uparc::literals;

TEST(Units, FrequencyPeriodRoundTrip) {
  EXPECT_EQ(Frequency::mhz(100).period().ps(), 10'000u);
  EXPECT_EQ(Frequency::mhz(362.5).period().ps(), 2759u);  // 2758.6 ps rounded
  EXPECT_EQ(Frequency::mhz(50).period().ps(), 20'000u);
}

TEST(Units, FrequencyZeroPeriodThrows) {
  EXPECT_THROW((void)Frequency().period(), std::domain_error);
}

TEST(Units, TimeArithmetic) {
  TimePs a = TimePs::from_us(1.5);
  TimePs b = TimePs::from_ns(500);
  EXPECT_EQ((a + b).ps(), 2'000'000u);
  EXPECT_EQ((a - b).ps(), 1'000'000u);
  EXPECT_DOUBLE_EQ((a + b).us(), 2.0);
  EXPECT_LT(b, a);
}

TEST(Units, TimeLiteralsAndScaling) {
  EXPECT_EQ((TimePs::from_ns(10) * 3).ps(), 30'000u);
  EXPECT_EQ(64_KiB, 65'536u);
  EXPECT_EQ(2_MiB, 2'097'152u);
}

TEST(Units, BandwidthFromBytesOverTime) {
  // 400 MB in one second.
  Bandwidth bw = Bandwidth::from_bytes_over(400'000'000, TimePs::from_seconds(1.0));
  EXPECT_NEAR(bw.mb_per_sec(), 400.0, 1e-9);
  EXPECT_THROW((void)Bandwidth::from_bytes_over(1, TimePs(0)), std::domain_error);
}

TEST(Units, TheoreticalIcapBandwidthAtPaperFrequencies) {
  // Paper: 4 bytes/cycle -> 1.45 GB/s at 362.5 MHz, 400 MB/s at 100 MHz.
  const double bytes_per_cycle = 4.0;
  EXPECT_NEAR(Frequency::mhz(362.5).in_hz() * bytes_per_cycle * 1e-9, 1.45, 1e-12);
  EXPECT_NEAR(Frequency::mhz(100).in_hz() * bytes_per_cycle * 1e-6, 400.0, 1e-9);
}

TEST(Units, ToStringFormats) {
  EXPECT_EQ(to_string(Frequency::mhz(362.5)), "362.5 MHz");
  EXPECT_EQ(to_string(TimePs::from_us(550)), "550 us");
  EXPECT_EQ(to_string(TimePs::from_ns(5)), "5 ns");
  EXPECT_EQ(to_string(TimePs::from_ms(1.1)), "1.1 ms");
}

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> bad = make_error("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "nope");
  EXPECT_THROW((void)bad.value(), std::runtime_error);
  EXPECT_THROW((void)ok.error(), std::runtime_error);
}

TEST(Result, StatusSuccessAndFailure) {
  Status s = Status::success();
  EXPECT_TRUE(s.ok());
  Status f = make_error("broken");
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.error().message, "broken");
}

TEST(Crc32, KnownVectors) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char* s = "123456789";
  Bytes b(s, s + 9);
  EXPECT_EQ(crc32(b), 0xCBF43926u);
  EXPECT_EQ(crc32(BytesView{}), 0x00000000u);
}

TEST(Crc32, WordOrderMatchesByteOrder) {
  Words w = {0x01020304u, 0xAABBCCDDu};
  Bytes b = words_to_bytes(w);
  EXPECT_EQ(crc32_words(w), crc32(b));
}

TEST(Crc32, StreamingEqualsOneShot) {
  Prng rng(7);
  Bytes data(1000);
  for (auto& x : data) x = rng.byte();
  Crc32 c;
  c.update(BytesView(data).subspan(0, 400));
  c.update(BytesView(data).subspan(400));
  EXPECT_EQ(c.value(), crc32(data));
}

// Bitwise reference CRC-32: one bit of the reflected polynomial at a time,
// no tables. Every table-driven path must agree with it.
u32 reference_crc(BytesView bytes, u32 state = 0xFFFFFFFFu) {
  for (u8 b : bytes) {
    state ^= b;
    for (int k = 0; k < 8; ++k) {
      state = (state & 1u) ? (0xEDB88320u ^ (state >> 1)) : (state >> 1);
    }
  }
  return ~state;
}

Bytes random_bytes(Prng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = rng.byte();
  return b;
}

TEST(Crc32, ReferenceAgreesWithKnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(reference_crc(Bytes(s, s + 9)), 0xCBF43926u);
}

TEST(Crc32, EveryEntryPointMatchesBitwiseReference) {
  Prng rng(11);
  for (std::size_t len = 0; len <= 67; ++len) {
    const Bytes data = random_bytes(rng, len);
    const u32 want = reference_crc(data);
    EXPECT_EQ(crc32(data), want) << "len " << len;

    Crc32 bytewise;
    for (u8 b : data) bytewise.update(b);
    EXPECT_EQ(bytewise.value(), want) << "len " << len;

    Crc32 span;
    span.update(BytesView(data));
    EXPECT_EQ(span.value(), want) << "len " << len;

    // Word paths: the first len/4 words (big-endian) and the same bytes.
    const std::size_t nwords = len / 4;
    Words words(nwords);
    for (std::size_t i = 0; i < nwords; ++i) {
      words[i] = (u32{data[4 * i]} << 24) | (u32{data[4 * i + 1]} << 16) |
                 (u32{data[4 * i + 2]} << 8) | u32{data[4 * i + 3]};
    }
    const u32 want_words = reference_crc(BytesView(data).subspan(0, 4 * nwords));
    EXPECT_EQ(crc32_words(words), want_words) << "words " << nwords;
    Crc32 wordwise;
    for (u32 w : words) wordwise.update_word(w);
    EXPECT_EQ(wordwise.value(), want_words) << "words " << nwords;
  }
}

TEST(Crc32, UnalignedSubSpansMatchReference) {
  Prng rng(12);
  const Bytes data = random_bytes(rng, 96);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; off + len <= data.size(); len += 5) {
      const BytesView view = BytesView(data).subspan(off, len);
      EXPECT_EQ(crc32(view), reference_crc(view)) << "off " << off << " len " << len;
    }
  }
  const Words words = {0xDEADBEEFu, 0x01234567u, 0x89ABCDEFu, 0x0u, 0xFFFFFFFFu};
  for (std::size_t off = 0; off < words.size(); ++off) {
    const WordsView view = WordsView(words).subspan(off);
    const Bytes bytes = words_to_bytes(Words(view.begin(), view.end()));
    EXPECT_EQ(crc32_words(view), reference_crc(bytes)) << "off " << off;
  }
}

TEST(Crc32, EverySplitAcrossMixedCallsGivesOneValue) {
  Prng rng(13);
  const Bytes data = random_bytes(rng, 40);
  const u32 want = reference_crc(data);
  // Split into [0, a) as single bytes, [a, b) as one span, [b, end) as
  // words where whole words remain and single bytes for the tail.
  for (std::size_t a = 0; a <= data.size(); ++a) {
    for (std::size_t b = a; b <= data.size(); ++b) {
      Crc32 c;
      for (std::size_t i = 0; i < a; ++i) c.update(data[i]);
      c.update(BytesView(data).subspan(a, b - a));
      std::size_t i = b;
      for (; i + 4 <= data.size(); i += 4) {
        c.update_word((u32{data[i]} << 24) | (u32{data[i + 1]} << 16) |
                      (u32{data[i + 2]} << 8) | u32{data[i + 3]});
      }
      for (; i < data.size(); ++i) c.update(data[i]);
      ASSERT_EQ(c.value(), want) << "split " << a << "/" << b;
    }
  }
}

TEST(Crc32, ConfigCrcMatchesReference) {
  // The bitstream CRC register folds each word then its 5-bit register
  // address, as bytes: w>>24, w>>16, w>>8, w, reg.
  Prng rng(14);
  bits::ConfigCrc crc;
  Bytes stream;
  for (int i = 0; i < 50; ++i) {
    const u32 word = static_cast<u32>(rng.next());
    const auto reg = static_cast<bits::ConfigReg>(rng.below(32));
    crc.write(reg, word);
    for (int shift = 24; shift >= 0; shift -= 8) {
      stream.push_back(static_cast<u8>(word >> shift));
    }
    stream.push_back(static_cast<u8>(static_cast<u32>(reg) & 0x1Fu));
    ASSERT_EQ(crc.value(), reference_crc(stream)) << "write " << i;
  }
}

TEST(Types, WordPackingRoundTrip) {
  Bytes b = {0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04};
  Words w = bytes_to_words(b);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], 0xDEADBEEFu);
  EXPECT_EQ(w[1], 0x01020304u);
  EXPECT_EQ(words_to_bytes(w), b);
}

TEST(Types, WordPackingPadsTail) {
  Bytes b = {0xAA, 0xBB, 0xCC, 0xDD, 0xEE};
  Words w = bytes_to_words(b);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[1], 0xEE000000u);
}

TEST(BitIo, RoundTripMixedWidths) {
  BitWriter bw;
  bw.put(0b101, 3);
  bw.put(0xDEADu, 16);
  bw.put_bit(true);
  bw.put(0x7, 3);
  bw.put(0x12345678u, 32);
  Bytes data = bw.finish();

  BitReader br(data);
  EXPECT_EQ(br.get(3), 0b101u);
  EXPECT_EQ(br.get(16), 0xDEADu);
  EXPECT_TRUE(br.get_bit());
  EXPECT_EQ(br.get(3), 0x7u);
  EXPECT_EQ(br.get(32), 0x12345678u);
}

TEST(BitIo, ReadPastEndThrows) {
  BitWriter bw;
  bw.put(0xF, 4);
  Bytes data = bw.finish();  // one byte after padding
  BitReader br(data);
  EXPECT_EQ(br.get(8), 0xF0u);
  EXPECT_THROW((void)br.get(1), std::out_of_range);
}

TEST(BitIo, BitCountTracksWrites) {
  BitWriter bw;
  bw.put(1, 1);
  bw.put(0, 13);
  EXPECT_EQ(bw.bit_count(), 14u);
}

TEST(Prng, DeterministicForSeed) {
  Prng a(123), b(123), c(124);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Prng, RangeBounds) {
  Prng rng(5);
  for (int i = 0; i < 1000; ++i) {
    u64 v = rng.range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Prng, ChanceExtremes) {
  Prng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Hexdump, FormatsBytes) {
  Bytes b = {'H', 'i', 0x00, 0xFF};
  std::string d = hexdump(b);
  EXPECT_NE(d.find("48 69 00 ff"), std::string::npos);
  EXPECT_NE(d.find("|Hi..|"), std::string::npos);
}

TEST(Hexdump, TruncatesAtLimit) {
  Bytes b(1000, 0xAB);
  std::string d = hexdump(b, 32);
  EXPECT_NE(d.find("more bytes"), std::string::npos);
}

}  // namespace
}  // namespace uparc
