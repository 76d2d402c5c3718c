// Tests for the streaming decoders: word-at-a-time decode must match the
// block codec bit-for-bit under every feeding pattern.
#include <gtest/gtest.h>

#include <algorithm>

#include "bitstream/generator.hpp"
#include "common/bitio.hpp"
#include "common/prng.hpp"
#include "compress/registry.hpp"
#include "compress/rle.hpp"
#include "compress/streaming.hpp"
#include "compress/xmatch_detail.hpp"
#include "core/decompressor_unit.hpp"

namespace uparc::compress {
namespace {

using namespace uparc::literals;

Bytes bitstream_bytes(std::size_t kb, u64 seed) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = kb * 1024;
  cfg.seed = seed;
  return words_to_bytes(bits::Generator(cfg).generate().body);
}

/// Feeds container words into a streaming decoder, draining opportunistically
/// every `drain_every` pushes; returns the decoded words.
Words stream_decode(StreamingDecoder& dec, const Words& container_words,
                    unsigned drain_every = 1) {
  Words out;
  unsigned since_drain = 0;
  auto drain = [&] {
    u32 w;
    while (dec.pop_word(w)) out.push_back(w);
  };
  for (u32 word : container_words) {
    dec.push_word(word);
    if (++since_drain >= drain_every) {
      drain();
      since_drain = 0;
    }
  }
  drain();
  return out;
}

class StreamEquivalence : public ::testing::TestWithParam<std::tuple<CodecId, unsigned>> {};

TEST_P(StreamEquivalence, MatchesBlockDecode) {
  const auto [id, drain_every] = GetParam();
  auto codec = make_codec(id);
  const Bytes input = bitstream_bytes(48, 3);
  const Bytes container = codec->compress(input);
  const Words container_words = bytes_to_words(container);

  auto dec = make_streaming_decoder(id);
  ASSERT_NE(dec, nullptr);
  Words out = stream_decode(*dec, container_words, drain_every);

  EXPECT_TRUE(dec->finished());
  EXPECT_FALSE(dec->errored()) << dec->error_message();
  EXPECT_EQ(dec->total_words(), (input.size() + 3) / 4);
  ASSERT_EQ(out.size(), dec->total_words());
  EXPECT_EQ(words_to_bytes(out), input);  // exact content (input is word-aligned)
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, StreamEquivalence,
    ::testing::Combine(::testing::Values(CodecId::kRle, CodecId::kXMatchPro),
                       ::testing::Values(1u, 7u, 1000000u)),
    [](const auto& info) {
      std::string name =
          std::get<0>(info.param) == CodecId::kRle ? "RLE" : "XMatchPRO";
      return name + "_drain" + std::to_string(std::get<1>(info.param) % 1000);
    });

TEST(Streaming, AvailabilityQuery) {
  EXPECT_TRUE(has_streaming_decoder(CodecId::kRle));
  EXPECT_TRUE(has_streaming_decoder(CodecId::kXMatchPro));
  EXPECT_FALSE(has_streaming_decoder(CodecId::kLzmaLite));
  EXPECT_EQ(make_streaming_decoder(CodecId::kDeflateLite), nullptr);
}

TEST(Streaming, RandomAndAdversarialContents) {
  Prng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Bytes input;
    const std::size_t n = 512 + rng.below(8192);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix zeros (RLI path), escapes, repeats and noise.
      const u64 pick = rng.below(4);
      input.push_back(pick == 0 ? 0 : pick == 1 ? 0xBD : static_cast<u8>(rng.below(16) * 17));
    }
    for (auto id : {CodecId::kRle, CodecId::kXMatchPro}) {
      auto codec = make_codec(id);
      const Words container_words = bytes_to_words(codec->compress(input));
      auto dec = make_streaming_decoder(id);
      Words out = stream_decode(*dec, container_words, 3);
      ASSERT_FALSE(dec->errored()) << dec->error_message();
      // The final word may carry padding; compare byte prefixes.
      Bytes out_bytes = words_to_bytes(out);
      out_bytes.resize(input.size());
      EXPECT_EQ(out_bytes, input) << "codec " << static_cast<int>(id) << " trial " << trial;
    }
  }
}

TEST(Streaming, RejectsWrongCodecHeader) {
  auto rle = make_codec(CodecId::kRle);
  const Words container_words = bytes_to_words(rle->compress(Bytes(100, 7)));
  auto dec = make_streaming_decoder(CodecId::kXMatchPro);
  dec->push_word(container_words[0]);
  dec->push_word(container_words[1]);
  EXPECT_TRUE(dec->errored());
  EXPECT_NE(dec->error_message().find("codec id mismatch"), std::string::npos);
}

TEST(Streaming, TotalWordsUnknownUntilHeader) {
  auto dec = make_streaming_decoder(CodecId::kRle);
  EXPECT_EQ(dec->total_words(), 0u);
  auto rle = make_codec(CodecId::kRle);
  const Words words = bytes_to_words(rle->compress(Bytes(4000, 0)));
  dec->push_word(words[0]);
  dec->push_word(words[1]);  // 8 bytes in: header complete
  EXPECT_EQ(dec->total_words(), 1000u);
}

TEST(Streaming, PaddingAfterFinishedIsIgnored) {
  const Bytes input = bitstream_bytes(8, 4);
  for (auto id : {CodecId::kRle, CodecId::kXMatchPro}) {
    SCOPED_TRACE(static_cast<int>(id));
    auto dec = make_streaming_decoder(id);
    const Words out = stream_decode(*dec, bytes_to_words(make_codec(id)->compress(input)));
    ASSERT_TRUE(dec->finished());
    ASSERT_EQ(words_to_bytes(out), input);
    // The BRAM pads a container with zeros; garbage must not restart decode.
    for (u32 pad : {0u, 0u, 0xFFFFFFFFu, 0xC5000000u, 0x40000000u}) dec->push_word(pad);
    u32 w = 0;
    EXPECT_FALSE(dec->pop_word(w));
    EXPECT_TRUE(dec->finished());
    EXPECT_FALSE(dec->errored()) << dec->error_message();
    EXPECT_EQ(dec->produced_words(), out.size());
  }
}

// ------------------------------------------------ availability per push

/// The container word (0-based) that delivers payload bit `bit`.
std::size_t word_of_payload_bit(std::size_t bit) { return (wire::kHeaderBytes + bit / 8) / 4; }

/// One record of a payload, as the block decoder walks it.
struct Record {
  char kind;              // 'l' literal, 'e' escape, 'm' miss, 'r' RLI run, 'p' CAM match
  std::size_t start_bit;  // payload bit of the record's first bit
  std::size_t end_bit;    // payload bit just past its last bit
  std::size_t out_bytes;  // decoded bytes once it is done (cumulative)

  [[nodiscard]] bool straddles_words() const {
    return word_of_payload_bit(start_bit) != word_of_payload_bit(end_bit - 1);
  }
};

/// Reference walk over a payload with BitReader::bit_position(): the record
/// boundaries and cumulative output of the block decoder.
std::vector<Record> walk_records(CodecId id, BytesView payload, std::size_t original) {
  std::vector<Record> records;
  BitReader br(payload);
  std::size_t out = 0;
  std::size_t dict_size = 0;  // X-MatchPRO: sets the phased location width
  constexpr std::size_t kDictEntries = 16;
  while (out < original) {
    const std::size_t start = br.bit_position();
    char kind = 0;
    if (id == CodecId::kRle) {
      kind = 'l';
      out += 1;
      if (br.get(8) == RleCodec::kEscape) {
        kind = 'e';
        const u32 count = br.get(8);
        if (count != RleCodec::kLiteralMarker) {
          (void)br.get(8);
          out += count + 2;
        }
      }
    } else if (br.get_bit()) {
      kind = 'm';
      (void)br.get(32);
      out += 4;
      dict_size = std::min(dict_size + 1, kDictEntries);
    } else if (br.get_bit()) {
      kind = 'r';
      out += 4 * std::size_t{br.get(xm::kRliBits)};
    } else {
      kind = 'p';
      (void)xm::get_phased(br, static_cast<u32>(dict_size));
      const u8 mask = xm::kMatchMasks[static_cast<std::size_t>(xm::get_type(br))];
      for (int b = 0; b < 4; ++b) {
        if (!(mask & (1u << b))) (void)br.get(8);
      }
      out += 4;
      if (mask != 0b1111) dict_size = std::min(dict_size + 1, kDictEntries);
    }
    records.push_back({kind, start, br.bit_position(), out});
  }
  return records;
}

/// Pushes `input`'s container one word at a time, popping all it can after
/// each push, and checks the popped words against the block decoder: always
/// a prefix, exactly as many as the records whose last bit has arrived, and
/// no error. Returns the reference records.
std::vector<Record> expect_per_push_availability(CodecId id, const Bytes& input) {
  auto codec = make_codec(id);
  const Bytes container = codec->compress(input);
  auto block = codec->decompress(container);
  EXPECT_TRUE(block.ok());
  const Words expected = bytes_to_words(block.value());
  const auto records =
      walk_records(id, wire::unwrap(id, container).value().payload, input.size());

  const Words words = bytes_to_words(container);
  auto dec = make_streaming_decoder(id);
  Words popped;
  std::size_t next_record = 0;
  std::size_t done_bytes = 0;
  for (std::size_t k = 0; k < words.size(); ++k) {
    dec->push_word(words[k]);
    u32 w = 0;
    while (dec->pop_word(w)) popped.push_back(w);

    const std::size_t arrived = 4 * (k + 1);
    const std::size_t payload_bits =
        arrived > wire::kHeaderBytes ? 8 * (arrived - wire::kHeaderBytes) : 0;
    while (next_record < records.size() && records[next_record].end_bit <= payload_bits) {
      done_bytes = records[next_record++].out_bytes;
    }
    const std::size_t want =
        done_bytes >= input.size() ? (input.size() + 3) / 4 : done_bytes / 4;
    EXPECT_FALSE(dec->errored()) << "push " << k << ": " << dec->error_message();
    EXPECT_EQ(popped.size(), want) << "push " << k;
    EXPECT_TRUE(popped.size() <= expected.size() &&
                std::equal(popped.begin(), popped.end(), expected.begin()))
        << "push " << k;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_TRUE(dec->finished());
  EXPECT_EQ(popped, expected);
  return records;
}

/// Mostly zero words, with repeats and one-byte variants of recent words:
/// RLI runs, full matches and partial matches in every position.
Bytes zero_heavy_image(std::size_t words, u64 seed) {
  Prng rng(seed);
  Words out;
  for (std::size_t i = 0; i < words; ++i) {
    const u64 pick = rng.below(20);
    u32 w = 0;
    if (pick >= 11 && !out.empty()) {
      w = out[out.size() - 1 - rng.below(std::min<std::size_t>(out.size(), 24))];
      if (pick >= 15) w ^= u32{rng.byte() | 1u} << (8 * rng.below(4));
      if (pick >= 18) w = static_cast<u32>(rng.next());
    }
    out.push_back(w);
  }
  return words_to_bytes(out);
}

Bytes random_image(std::size_t bytes, u64 seed) {
  Prng rng(seed);
  Bytes out(bytes);
  for (auto& b : out) b = rng.byte();
  return out;
}

bool any_straddle(const std::vector<Record>& records, char kind) {
  return std::any_of(records.begin(), records.end(), [&](const Record& r) {
    return r.kind == kind && r.straddles_words();
  });
}

TEST(StreamingAvailability, XMatchProWordAppearsAtThePushThatCompletesItsRecord) {
  {
    SCOPED_TRACE("zero-heavy");
    const auto records = expect_per_push_availability(CodecId::kXMatchPro,
                                                      zero_heavy_image(6000, 11));
    // The image must exercise the cases the rollback exists for.
    EXPECT_TRUE(any_straddle(records, 'r'));
    EXPECT_TRUE(any_straddle(records, 'p'));
    EXPECT_TRUE(any_straddle(records, 'm'));
  }
  {
    SCOPED_TRACE("random");
    expect_per_push_availability(CodecId::kXMatchPro, random_image(16384, 12));
  }
}

TEST(StreamingAvailability, RleWordAppearsAtThePushThatCompletesItsRecord) {
  {
    SCOPED_TRACE("zero-heavy");
    const auto records =
        expect_per_push_availability(CodecId::kRle, zero_heavy_image(6000, 13));
    EXPECT_TRUE(any_straddle(records, 'e'));
  }
  {
    SCOPED_TRACE("random");
    expect_per_push_availability(CodecId::kRle, random_image(16384, 14));
  }
}

// ------------------------------------------------------ corrupt streams

/// Pushes `container` word by word; returns the index of the push after
/// which the decoder first reported an error (words.size() if never), with
/// the number of words popped before it.
struct FirstError {
  std::size_t push;
  std::size_t popped_before;
};
FirstError push_until_error(StreamingDecoder& dec, const Bytes& container) {
  const Words words = bytes_to_words(container);
  std::size_t popped = 0;
  for (std::size_t k = 0; k < words.size(); ++k) {
    dec.push_word(words[k]);
    if (dec.errored()) return {k, popped};
    u32 w = 0;
    while (dec.pop_word(w)) ++popped;
  }
  return {words.size(), popped};
}

TEST(StreamingCorrupt, ZeroLengthRunReportedOnlyOnceItsFieldArrives) {
  constexpr std::size_t kRliRecordBits = 2 + xm::kRliBits;
  BitWriter bw;
  bw.put_bit(true);  // miss
  bw.put(0x12345678u, 32);
  // One-tuple zero runs shift the bad record until it straddles two words,
  // so its all-zero run field arrives in two parts.
  std::size_t good_runs = 0;
  while (word_of_payload_bit(bw.bit_count()) ==
         word_of_payload_bit(bw.bit_count() + kRliRecordBits - 1)) {
    bw.put_bit(false);
    bw.put_bit(true);
    bw.put(1, xm::kRliBits);
    ++good_runs;
  }
  const std::size_t bad_end = bw.bit_count() + kRliRecordBits - 1;
  bw.put_bit(false);
  bw.put_bit(true);
  bw.put(0, xm::kRliBits);
  for (int i = 0; i < 8; ++i) bw.put(0xFFu, 8);
  const Bytes container = wire::wrap(CodecId::kXMatchPro, 400, bw.finish());

  auto dec = make_streaming_decoder(CodecId::kXMatchPro);
  const FirstError got = push_until_error(*dec, container);
  EXPECT_EQ(got.push, word_of_payload_bit(bad_end));
  EXPECT_EQ(got.popped_before, 1 + good_runs);
  EXPECT_EQ(dec->error_message(), "X-MatchPRO stream: zero-length RLI run");
}

TEST(StreamingCorrupt, LocationOutOfRangeReportedOnceTheRecordArrives) {
  // A CAM match against the still-empty dictionary: its location names no
  // entry. The record is two bits; its word is the first with payload.
  BitWriter bw;
  bw.put_bit(false);
  bw.put_bit(false);
  for (int i = 0; i < 8; ++i) bw.put(0xFFu, 8);
  const Bytes container = wire::wrap(CodecId::kXMatchPro, 400, bw.finish());

  auto dec = make_streaming_decoder(CodecId::kXMatchPro);
  const FirstError got = push_until_error(*dec, container);
  EXPECT_EQ(got.push, word_of_payload_bit(1));
  EXPECT_EQ(got.popped_before, 0u);
  EXPECT_EQ(dec->error_message(), "X-MatchPRO stream: location out of range");
}

TEST(StreamingCorrupt, TruncatedRecordsNeverReportCorruption) {
  // Cut a valid container after every word: a record cut short reads zeros,
  // which must not surface as a zero-length run or a bad location.
  const Bytes container =
      make_codec(CodecId::kXMatchPro)->compress(zero_heavy_image(400, 15));
  const Words words = bytes_to_words(container);
  for (std::size_t cut = 1; cut < words.size(); ++cut) {
    auto dec = make_streaming_decoder(CodecId::kXMatchPro);
    for (std::size_t k = 0; k < cut; ++k) dec->push_word(words[k]);
    ASSERT_FALSE(dec->errored()) << "cut " << cut << ": " << dec->error_message();
    ASSERT_FALSE(dec->finished()) << "cut " << cut;
  }
}

TEST(StreamingUnit, DecompressorUnitStreamsRealData) {
  sim::Simulation sim;
  sim::Clock clk3(sim, "clk3", Frequency::mhz(126));
  auto xm = make_codec(CodecId::kXMatchPro);
  const Bytes input = bitstream_bytes(32, 5);
  const Words container_words = bytes_to_words(xm->compress(input));
  const Words expected = bytes_to_words(input);

  core::DecompressorUnit unit(sim, "decomp", clk3, xm->hardware(), 16, 0);
  unit.arm_streaming(make_streaming_decoder(CodecId::kXMatchPro), expected.size(),
                     container_words.size());
  EXPECT_TRUE(unit.streaming());

  Words drained;
  std::size_t fed = 0;
  clk3.on_rising([&] {
    while (fed < container_words.size() && unit.can_accept_input()) {
      unit.push_input(container_words[fed++]);
    }
    while (unit.has_output()) drained.push_back(unit.pop_output());
    if (unit.stream_done() || unit.errored()) clk3.disable();
  });
  clk3.enable();
  sim.run();

  ASSERT_FALSE(unit.errored()) << unit.error_message();
  EXPECT_EQ(drained, expected);  // bit-exact through the streaming decoder
}

TEST(StreamingUnit, CorruptStreamSurfacesError) {
  sim::Simulation sim;
  sim::Clock clk3(sim, "clk3", Frequency::mhz(126));
  auto xm = make_codec(CodecId::kXMatchPro);
  const Bytes input = bitstream_bytes(8, 5);
  Words container_words = bytes_to_words(xm->compress(input));
  container_words[0] ^= 0xFF000000u;  // destroy the wire magic

  core::DecompressorUnit unit(sim, "decomp", clk3, xm->hardware(), 16, 0);
  unit.arm_streaming(make_streaming_decoder(CodecId::kXMatchPro),
                     bytes_to_words(input).size(), container_words.size());
  std::size_t fed = 0;
  int cycles = 0;
  clk3.on_rising([&] {
    while (fed < container_words.size() && unit.can_accept_input()) {
      unit.push_input(container_words[fed++]);
    }
    if (unit.errored() || ++cycles > 10000) clk3.disable();
  });
  clk3.enable();
  sim.run();
  EXPECT_TRUE(unit.errored());
}

}  // namespace
}  // namespace uparc::compress
