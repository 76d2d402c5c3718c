#include "compress/streaming.hpp"

#include "compress/rle.hpp"
#include "compress/xmatch_detail.hpp"

namespace uparc::compress {
namespace {

/// Consumed bytes a buffer keeps before it compacts (see `BitFeeder::commit`).
constexpr std::size_t kCompactBytes = 256;

/// Incremental bit reservoir: bytes arrive over time, bits are consumed
/// MSB-first. A read past the end returns 0 and sets a sticky underrun flag,
/// so a decoder reads a whole record, then checks `underrun()` once before
/// it validates or uses any field. `mark()` snapshots the position and
/// `rollback()` restores it (clearing the flag), which abandons a half-read
/// record until more input arrives. `commit()` accepts the record and, once
/// the consumed prefix outweighs the rest, drops it — the rest is at most a
/// partial record plus one word, so compaction costs O(1) per input byte.
class BitFeeder {
 public:
  void feed(u8 byte) { buf_.push_back(byte); }

  [[nodiscard]] std::size_t bits_left() const noexcept {
    return buf_.size() * 8 - bit_pos_;
  }
  [[nodiscard]] bool underrun() const noexcept { return underrun_; }

  void mark() noexcept { mark_ = bit_pos_; }
  void rollback() noexcept {
    bit_pos_ = mark_;
    underrun_ = false;
  }
  void commit() {
    const std::size_t dead = bit_pos_ / 8;
    if (dead >= kCompactBytes && 2 * dead >= buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(dead));
      bit_pos_ -= 8 * dead;
    }
    mark_ = bit_pos_;
  }

  [[nodiscard]] bool get_bit() { return get(1) != 0; }

  /// Reads `count` (<= 32) bits; 0 and a sticky underrun once short.
  [[nodiscard]] u32 get(unsigned count) {
    if (underrun_ || count > bits_left()) {
      underrun_ = true;
      return 0;
    }
    const std::size_t first = bit_pos_ / 8;
    const unsigned skip = static_cast<unsigned>(bit_pos_ % 8);
    const unsigned span = (skip + count + 7) / 8;  // bytes the field touches, <= 5
    u64 acc = 0;
    for (unsigned i = 0; i < span; ++i) acc = (acc << 8) | buf_[first + i];
    bit_pos_ += count;
    return static_cast<u32>((acc >> (8 * span - skip - count)) & ((u64{1} << count) - 1));
  }

 private:
  Bytes buf_;
  std::size_t bit_pos_ = 0;
  std::size_t mark_ = 0;
  bool underrun_ = false;
};

/// Shared plumbing: container-header parsing, input word unpacking, output
/// byte->word packing, and bookkeeping.
class StreamingBase : public StreamingDecoder {
 public:
  explicit StreamingBase(CodecId expect) : expect_(expect) {}

  void push_word(u32 word) final {
    if (errored_ || all_bytes_produced()) return;  // input past the end is ignored
    for (int b = 3; b >= 0; --b) {
      const u8 byte = static_cast<u8>(word >> (8 * b));
      if (header_parsed_) {
        bits_.feed(byte);
      } else {
        parse_header_byte(byte);
        if (errored_) return;
      }
    }
    if (header_parsed_) decode_available();
  }

  bool pop_word(u32& out) final {
    // A full word, or the padded tail once everything has been produced.
    const std::size_t ready = out_bytes_.size() - out_head_;
    if (ready < 4 && !(all_bytes_produced() && ready > 0)) return false;
    u8 b[4] = {0, 0, 0, 0};
    const std::size_t take = ready < 4 ? ready : 4;
    for (std::size_t i = 0; i < take; ++i) b[i] = out_bytes_[out_head_ + i];
    out_head_ += take;
    if (out_head_ == out_bytes_.size()) {
      out_bytes_.clear();
      out_head_ = 0;
    } else if (out_head_ >= kCompactBytes && 2 * out_head_ >= out_bytes_.size()) {
      out_bytes_.erase(out_bytes_.begin(),
                       out_bytes_.begin() + static_cast<std::ptrdiff_t>(out_head_));
      out_head_ = 0;
    }
    out = load_be32(b);
    ++produced_words_;
    return true;
  }

  [[nodiscard]] bool finished() const final {
    return header_parsed_ && all_bytes_produced() && out_head_ == out_bytes_.size();
  }
  [[nodiscard]] std::size_t produced_words() const final { return produced_words_; }
  [[nodiscard]] std::size_t total_words() const final {
    return header_parsed_ ? (original_size_ + 3) / 4 : 0;
  }
  [[nodiscard]] bool errored() const final { return errored_; }
  [[nodiscard]] const std::string& error_message() const final { return error_; }

 protected:
  /// Decodes every record that has fully arrived; implemented per codec.
  virtual void decode_available() = 0;

  void fail(std::string why) {
    errored_ = true;
    error_ = std::move(why);
  }

  void emit_byte(u8 b) {
    if (produced_bytes_ < original_size_) {
      out_bytes_.push_back(b);
    }
    ++produced_bytes_;  // padding beyond the size is counted but dropped
    if (produced_bytes_ > original_size_ + 3) {
      fail("decoder produced more than the declared size");
    }
  }

  /// Emits a big-endian word (one X-MatchPRO tuple).
  void emit_word(u32 w) {
    if (produced_bytes_ + 4 <= original_size_) {
      u8 b[4];
      store_be32(b, w);
      out_bytes_.insert(out_bytes_.end(), b, b + 4);
      produced_bytes_ += 4;
      return;
    }
    for (int b = 3; b >= 0; --b) emit_byte(static_cast<u8>(w >> (8 * b)));
  }

  [[nodiscard]] bool all_bytes_produced() const {
    return header_parsed_ && produced_bytes_ >= original_size_;
  }

  BitFeeder bits_;

 private:
  void parse_header_byte(u8 byte) {
    header_buf_.push_back(byte);
    if (header_buf_.size() < wire::kHeaderBytes) return;
    auto un = wire::unwrap(expect_, header_buf_);
    if (!un.ok()) {
      fail(un.error().message);
      return;
    }
    original_size_ = un.value().original_size;
    header_parsed_ = true;
  }

  CodecId expect_;
  Bytes header_buf_;
  bool header_parsed_ = false;
  std::size_t original_size_ = 0;
  std::size_t produced_bytes_ = 0;
  std::size_t produced_words_ = 0;
  Bytes out_bytes_;       // decoded, not yet popped: [out_head_, size())
  std::size_t out_head_ = 0;
  bool errored_ = false;
  std::string error_;
};

// --------------------------------------------------------------------- RLE

class RleStreamDecoder final : public StreamingBase {
 public:
  RleStreamDecoder() : StreamingBase(CodecId::kRle) {}

 protected:
  void decode_available() override {
    // Byte-level machine: a record is at most 3 bytes (ESC, count, value).
    while (!all_bytes_produced() && bits_.bits_left() >= 8) {
      const u8 b = static_cast<u8>(bits_.get(8));
      bits_.commit();
      switch (state_) {
        case State::kLiteral:
          if (b == RleCodec::kEscape) {
            state_ = State::kCount;
          } else {
            emit_byte(b);
          }
          break;
        case State::kCount:
          if (b == RleCodec::kLiteralMarker) {
            emit_byte(RleCodec::kEscape);
            state_ = State::kLiteral;
          } else {
            run_ = std::size_t{b} + 3;
            state_ = State::kValue;
          }
          break;
        case State::kValue:
          for (std::size_t i = 0; i < run_; ++i) emit_byte(b);
          state_ = State::kLiteral;
          break;
      }
    }
  }

 private:
  enum class State { kLiteral, kCount, kValue };
  State state_ = State::kLiteral;
  std::size_t run_ = 0;
};

// -------------------------------------------------------------- X-MatchPRO

class XMatchStreamDecoder final : public StreamingBase {
 public:
  explicit XMatchStreamDecoder(std::size_t dict_entries)
      : StreamingBase(CodecId::kXMatchPro), dict_(dict_entries) {}

 protected:
  void decode_available() override {
    // Records are self-delimiting but variable-length: decode until one has
    // only partly arrived (roll back to its start and wait for more input),
    // the stream errs, or all output is owed.
    while (!all_bytes_produced() && bits_.bits_left() >= 2 && !errored()) {
      bits_.mark();
      if (!decode_record()) {
        bits_.rollback();
        return;
      }
      bits_.commit();
    }
  }

 private:
  // Reads every field of one record before any side effect. Returns false,
  // with the dictionary and output untouched, when the record has not fully
  // arrived. The underrun check precedes validation: a short read returns 0,
  // which must not be mistaken for a zero-length run or a bad location.
  bool decode_record() {
    if (bits_.get_bit()) {  // miss: 4 literal bytes
      const xm::Tuple t = bits_.get(32);
      if (bits_.underrun()) return false;
      emit_word(t);
      dict_.insert(t);
      return true;
    }
    if (bits_.get_bit()) {  // RLI zero run
      const u32 run = bits_.get(xm::kRliBits);
      if (bits_.underrun()) return false;
      if (run == 0) {
        fail("X-MatchPRO stream: zero-length RLI run");
        return true;
      }
      for (u32 r = 0; r < run; ++r) emit_word(0);
      return true;
    }
    const u32 loc = xm::get_phased(bits_, static_cast<u32>(dict_.size()));
    if (bits_.underrun()) return false;
    if (loc >= dict_.size()) {
      fail("X-MatchPRO stream: location out of range");
      return true;
    }
    const u8 mask = xm::kMatchMasks[static_cast<std::size_t>(xm::get_type(bits_))];
    const xm::Tuple t = xm::get_unmatched(bits_, dict_.at(loc), mask);
    if (bits_.underrun()) return false;
    emit_word(t);
    if (mask == 0b1111) {
      dict_.promote(loc);
    } else {
      dict_.insert(t);
    }
    return true;
  }

  xm::Dictionary dict_;
};

}  // namespace

std::unique_ptr<StreamingDecoder> make_streaming_decoder(CodecId id,
                                                         std::size_t xmatch_dict_entries) {
  switch (id) {
    case CodecId::kRle: return std::make_unique<RleStreamDecoder>();
    case CodecId::kXMatchPro:
      return std::make_unique<XMatchStreamDecoder>(xmatch_dict_entries);
    default: return nullptr;
  }
}

bool has_streaming_decoder(CodecId id) {
  return id == CodecId::kRle || id == CodecId::kXMatchPro;
}

}  // namespace uparc::compress
