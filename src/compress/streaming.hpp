// Streaming (word-at-a-time) decoders for the hardware-implementable codecs.
//
// The block Codec interface decodes whole buffers; the simulated datapath
// wants a decoder it can feed one 32-bit word per cycle and drain as output
// words appear — exactly what the fabric decompressor does. RLE and
// X-MatchPRO (the codecs UPaRC actually deploys in the slot) have streaming
// implementations; core/decompressor_unit.hpp uses them so the compressed
// datapath carries real decoded data, not an offline replay.
//
// Input convention: the words UReC reads from the BRAM — the compressed
// container (wire header included) packed big-endian, zero-padded to a
// whole word.
//
// Availability: a push decodes every record whose last bit it delivers, so
// each output word becomes poppable at the push that completes its record
// (or, for the padded tail word, the push that completes the output). A
// record that has only partly arrived is held back without side effects.
#pragma once

#include <memory>

#include "compress/codec.hpp"

namespace uparc::compress {

class StreamingDecoder {
 public:
  virtual ~StreamingDecoder() = default;

  /// Feeds one input word. Words pushed once all declared output has been
  /// produced, or after an error, are ignored: the wire header stores the
  /// decoded size but no payload length, so the container's end cannot be
  /// told apart from the BRAM's zero padding.
  virtual void push_word(u32 word) = 0;

  /// Pops one decoded output word; returns false when none is ready yet.
  [[nodiscard]] virtual bool pop_word(u32& out) = 0;

  /// All declared output has been produced (it may still need popping).
  [[nodiscard]] virtual bool finished() const = 0;

  [[nodiscard]] virtual std::size_t produced_words() const = 0;
  /// Total output words this stream will produce (from the wire header;
  /// 0 until enough input has arrived to parse it).
  [[nodiscard]] virtual std::size_t total_words() const = 0;

  /// Decoder failure (corrupt stream); the message explains.
  [[nodiscard]] virtual bool errored() const = 0;
  [[nodiscard]] virtual const std::string& error_message() const = 0;
};

/// Creates a streaming decoder for `id`; nullptr when the codec has no
/// streaming implementation (the offline-replay path handles those).
[[nodiscard]] std::unique_ptr<StreamingDecoder> make_streaming_decoder(
    CodecId id, std::size_t xmatch_dict_entries = 16);

/// True if `id` has a streaming implementation.
[[nodiscard]] bool has_streaming_decoder(CodecId id);

}  // namespace uparc::compress
