// One set-associative cache level with LRU replacement.
//
// Representation: each set is a row of `ways` packed slots, each slot
// `(tag << 1) | dirty`, kept most-recently-used first, plus a count of the
// valid slots at the front of the row. The LRU order *is* the slot
// position: a hit moves its slot to the front, a fill inserts at the front
// and, in a full set, drops the last (least recently used) slot. There are
// no timestamps, so a behaviour-complete snapshot of the resident state is
// the valid slots copied set by set, and comparing or translating states
// needs no sort. Which physical way held a line never reached an
// observable; only the per-set recency order and dirty bits do, and those
// are exactly what a row holds. (Tags are line numbers, addr >> log2(line),
// so the packing needs line numbers below 2^63: any line size of at least
// two bytes.)
//
// Invalidation closes the gap it leaves in the row, so the next miss in
// that set fills the free slot without an eviction -- the same "fill an
// invalid way first" rule as a way-indexed cache.
//
// try_hit() is the inline fast path MemoryHierarchy takes for program
// accesses to its first level and for fills and writebacks into the
// levels below: it handles only an access that lies in one resident line
// and needs nothing from the next level, and otherwise leaves the level
// untouched so the caller can take the out-of-line access() path.
#pragma once

#include <cstdint>
#include <vector>

#include "bwc/memsim/cache_config.h"

namespace bwc::memsim {

/// A single cache level. Operates at line granularity; the hierarchy splits
/// byte ranges into line touches according to this level's geometry.
class CacheLevel {
 public:
  explicit CacheLevel(CacheConfig config);

  const CacheConfig& config() const { return config_; }
  const CacheLevelStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  /// Drop all cached lines (cold restart) in addition to the stats.
  void reset();

  struct AccessResult {
    bool hit = false;
    /// A line was installed by this access (miss with allocation).
    bool filled = false;
    /// A valid dirty line was evicted to make room; its address follows.
    bool evicted_dirty = false;
    std::uint64_t evicted_line_addr = 0;
  };

  /// Access one line. `line_addr` must be aligned to line_bytes.
  /// Write misses honor the allocate policy; under write-through, lines are
  /// never marked dirty (the hierarchy forwards the write downstream).
  AccessResult access(std::uint64_t line_addr, bool is_write);

  /// Inline hit path for a program access of `size` bytes at `addr`: when
  /// the bytes lie in one resident line and the access needs nothing from
  /// the next level (a read, or a write to a write-back level), count the
  /// hit, mark the line dirty on a write, make it most recent and return
  /// true -- exactly what access() would do for that line. Otherwise
  /// change nothing and return false.
  bool try_hit(std::uint64_t addr, std::uint64_t size, bool is_write) {
    const std::uint64_t tag = addr >> line_shift_;
    if (((addr + size - 1) >> line_shift_) != tag) return false;
    if (is_write && !write_back_) return false;  // write-through forwards
    const std::size_t s = set_index(addr);
    std::uint64_t* const set = slots_.data() + s * ways_;
    const std::uint32_t n = valid_[s];
    for (std::uint32_t k = 0; k < n; ++k) {
      if ((set[k] >> 1) != tag) continue;
      promote(set, k, set[k] | static_cast<std::uint64_t>(is_write));
      if (is_write) {
        ++stats_.write_hits;
      } else {
        ++stats_.read_hits;
      }
      return true;
    }
    return false;
  }

  /// True when the line is currently resident.
  bool contains(std::uint64_t line_addr) const;

  /// Invalidate a line if present, reporting whether it was dirty.
  /// Used by store elimination's no-writeback hint ablation.
  bool invalidate(std::uint64_t line_addr);

  /// Number of currently valid lines (for footprint-style diagnostics).
  std::uint64_t valid_line_count() const;

  /// True when set selection is pure modulo indexing, i.e. set_index
  /// commutes with line-granular address shifts. Page randomization hashes
  /// the page number, which breaks that commutation -- such a level can
  /// never certify the fast-forward state translation.
  bool modulo_indexed() const { return !randomized_; }

  /// Behavior-complete snapshot of the resident lines: per set, the valid
  /// slots most-recently-used first, each (tag << 1) | dirty. Two levels
  /// with equal snapshots respond identically to every future access
  /// stream.
  struct ResidentState {
    std::vector<std::uint64_t> entries;    // (tag << 1) | dirty, MRU first
    std::vector<std::uint32_t> set_begin;  // sets_ + 1 offsets into entries
  };
  void snapshot_state(ResidentState* out) const;

  /// True when the current resident state equals `snap` translated by
  /// `delta_lines` line addresses: set s must hold snap's set
  /// (s - delta) mod sets with every tag shifted by +delta, same dirty
  /// bits, same LRU order. Meaningful only for modulo_indexed() levels.
  bool state_equals_shifted(const ResidentState& snap,
                            std::int64_t delta_lines) const;

  /// Translate the resident state by `delta_lines`: rotate whole sets and
  /// shift every valid tag, preserving per-set LRU order and dirty bits.
  /// This is the state full simulation of one more period would reach when
  /// state_equals_shifted held for the previous one.
  void shift_state(std::int64_t delta_lines);

  /// stats += delta * times: analytic extrapolation of `times` periods
  /// whose per-period stat delta is `delta`.
  void add_stats_scaled(const CacheLevelStats& delta, std::uint64_t times);

 private:
  std::size_t set_index(std::uint64_t addr) const {
    const std::uint64_t line_id = addr >> line_shift_;
    if (!randomized_) return static_cast<std::size_t>(line_id & set_mask_);
    return randomized_set_index(addr);
  }
  std::size_t randomized_set_index(std::uint64_t addr) const;
  // line_bytes is a validated power of two, so line arithmetic on the
  // per-access hot path is shifts and masks, never division.
  std::uint64_t tag_of(std::uint64_t line_addr) const {
    return line_addr >> line_shift_;
  }
  /// Move slot k to the front of its set as `slot`; slots [0, k) age by one.
  static void promote(std::uint64_t* set, std::uint32_t k,
                      std::uint64_t slot) {
    for (; k > 0; --k) set[k] = set[k - 1];
    set[0] = slot;
  }

  CacheConfig config_;
  CacheLevelStats stats_;
  std::vector<std::uint64_t> slots_;  // sets_ * ways_, set-major, MRU first
  std::vector<std::uint32_t> valid_;  // per set: slots [0, valid_) are lines
  std::uint64_t sets_ = 0;
  std::uint64_t ways_ = 0;
  std::uint32_t line_shift_ = 0;  // log2(config_.line_bytes)
  bool write_back_ = true;        // write_policy == kWriteBack
  bool write_allocate_ = true;    // allocate_policy == kWriteAllocate
  // Hot-path geometry, precomputed once (sizes are validated powers of
  // two, so set selection is shifts and masks, never division).
  std::uint64_t set_mask_ = 0;            // sets_ - 1
  bool randomized_ = false;               // page_randomization_seed != 0
  std::uint32_t page_shift_ = 0;          // log2(page_bytes), randomized only
  std::uint64_t line_in_page_mask_ = 0;   // lines_per_page - 1
  std::uint64_t frame_mask_ = 0;          // sets_ / lines_per_page - 1
  bool frames_geometry_ = false;          // lines_per_page <= sets_
  // Streams hit the same page for many consecutive lines; caching the last
  // page's hash removes the splitmix64 from the randomized hot path.
  mutable std::uint64_t cached_page_ = ~std::uint64_t{0};
  mutable std::uint64_t cached_page_hash_ = 0;
};

}  // namespace bwc::memsim
