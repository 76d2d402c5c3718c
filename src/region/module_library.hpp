// Module library: the external bitstream store the paper's Manager reads
// from (CompactFlash / host memory). Holds every module's golden image —
// compressed at rest — and produces region-relocated instances on demand.
#pragma once

#include <map>

#include "bitstream/relocate.hpp"
#include "compress/registry.hpp"
#include "region/region.hpp"

namespace uparc::region {

class ModuleLibrary {
 public:
  /// Images are stored compressed at rest with `storage_codec`.
  explicit ModuleLibrary(compress::CodecId storage_codec = compress::CodecId::kXMatchPro);

  /// Registers a module's golden bitstream; fails on duplicate names.
  [[nodiscard]] Status add_module(const std::string& name,
                                  const bits::PartialBitstream& bs);

  [[nodiscard]] bool has(const std::string& name) const { return images_.count(name) != 0; }
  [[nodiscard]] std::size_t size() const noexcept { return images_.size(); }
  /// Bytes occupied at rest (compressed).
  [[nodiscard]] std::size_t stored_bytes() const;

  /// Decompresses and relocates a module for `target`; result starts at the
  /// region origin and is validated against the region window. The relocated
  /// image is memoized per (module, target origin): a repeat only re-checks
  /// the fit and copies it out, so callers may edit what they get back.
  [[nodiscard]] Result<bits::PartialBitstream> instantiate(const std::string& name,
                                                           const Floorplan& floorplan,
                                                           const Region& target) const;

  /// Decompresses the module at its original (compile-time) location.
  [[nodiscard]] Result<bits::PartialBitstream> original(const std::string& name) const;

  /// instantiate() calls of known modules served from the memo (hits) or
  /// decoded and relocated afresh (misses, failed relocations included).
  struct MemoStats {
    u64 hits = 0;
    u64 misses = 0;
  };
  [[nodiscard]] MemoStats memo_stats() const noexcept { return memo_stats_; }

 private:
  struct StoredImage {
    Bytes compressed_file;      // .bit container, codec-compressed
    std::size_t original_bytes; // uncompressed file size
    // Relocated instances, one per origin instantiated so far. A stored
    // image never changes (add_module refuses duplicates), so entries never
    // go stale; a remove/replace API would have to drop them. Not
    // thread-safe: a library belongs to one device and its shard.
    mutable std::vector<std::pair<bits::FrameAddress, bits::PartialBitstream>> instances;
  };

  std::unique_ptr<compress::Codec> codec_;
  std::map<std::string, StoredImage> images_;
  mutable MemoStats memo_stats_;
};

}  // namespace uparc::region
