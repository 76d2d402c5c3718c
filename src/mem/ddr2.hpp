// DDR2 SDRAM timing model.
//
// MST_ICAP (Liu et al., FPL'09) feeds ICAP from DDR2; its measured bandwidth
// (235 MB/s at ~120 MHz, versus BRAM_HWICAP's 371 MB/s) is limited by DRAM
// access overheads. The model charges, per burst: the burst data beats plus a
// command/CAS gap, and a row-activation penalty whenever the access crosses a
// row boundary. Cycle counts are expressed in memory-controller cycles at the
// controller clock.
#pragma once

#include <functional>

#include "sim/module.hpp"

namespace uparc::mem {

struct Ddr2Timing {
  unsigned burst_words = 8;        ///< words per burst (BL8 on a 32-bit rank)
  unsigned burst_gap_cycles = 8;   ///< command/CAS/bus-turnaround per burst, row hit
  unsigned row_miss_cycles = 22;   ///< extra tRP+tRCD penalty on a row miss
  unsigned row_words = 512;        ///< words per DRAM row (2 KB page / 4 B)
  unsigned refresh_interval = 4096;///< controller cycles between refreshes
  unsigned refresh_cycles = 18;    ///< tRFC in controller cycles
};

class Ddr2 : public sim::Module {
 public:
  Ddr2(sim::Simulation& sim, std::string name, std::size_t size_bytes,
       Ddr2Timing timing = {}, Frequency rated_fmax = Frequency::mhz(120));

  [[nodiscard]] std::size_t size_bytes() const noexcept { return size_words_ * 4; }
  [[nodiscard]] std::size_t size_words() const noexcept { return size_words_; }
  [[nodiscard]] Frequency rated_fmax() const noexcept { return rated_fmax_; }
  [[nodiscard]] const Ddr2Timing& timing() const noexcept { return timing_; }

  /// Host-side load (e.g. bitstream copied from CF at boot).
  void load(BytesView data, std::size_t word_offset = 0);
  void load_words(WordsView data, std::size_t word_offset = 0);

  /// Reads up to `count` sequential words starting at `word_addr` into `out`,
  /// returning the number of controller cycles consumed. Tracks the open row
  /// and pending refresh debt across calls.
  [[nodiscard]] unsigned read_burst(std::size_t word_addr, std::size_t count, Words& out);

  /// Average sustained words-per-cycle for long sequential streams, from the
  /// timing parameters (used by tests to validate calibration).
  [[nodiscard]] double sequential_words_per_cycle() const noexcept;

  /// Fault hook: every word leaving read_burst() passes through the tap
  /// (word address, stored value) -> observed value (read-path upset; the
  /// array is untouched).
  using ReadTap = std::function<u32(std::size_t, u32)>;
  void set_read_tap(ReadTap tap) { read_tap_ = std::move(tap); }

  /// Fault hook: consulted once per read_burst() call; the returned cycle
  /// count is added to the burst cost (controller back-pressure / retraining
  /// stall). Return 0 for no stall.
  using StallTap = std::function<unsigned()>;
  void set_stall_tap(StallTap tap) { stall_tap_ = std::move(tap); }

  [[nodiscard]] u64 total_cycles() const noexcept { return total_cycles_; }
  [[nodiscard]] u64 row_misses() const noexcept { return row_misses_; }

 private:
  std::size_t size_words_;
  // Storage up to the highest word ever loaded or read; words past its end
  // are zero, so an 8 MB tier that holds a few modules costs only their size.
  Words words_;
  ReadTap read_tap_;
  StallTap stall_tap_;
  Ddr2Timing timing_;
  Frequency rated_fmax_;
  i64 open_row_ = -1;
  u64 cycles_since_refresh_ = 0;
  u64 total_cycles_ = 0;
  u64 row_misses_ = 0;
};

}  // namespace uparc::mem
