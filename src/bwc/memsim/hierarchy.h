// Multi-level memory hierarchy simulator.
//
// Substitutes for the paper's hardware counters on the SGI Origin2000: it
// observes a program's exact access stream and reports the bytes moved
// across every adjacent pair of memory-hierarchy levels -- the quantities
// that define program balance (Section 2.2 of the paper).
//
// Boundary numbering: boundary 0 is registers<->L1 (every program access),
// boundary i is L(i)<->L(i+1), and the last boundary is last-cache<->memory.
//
// Hot path: load/store/load_run/store_run are inline. An access that lies
// in one resident L1 line and needs nothing from L2 (a read, or a write to
// a write-back L1) is finished by CacheLevel::try_hit without leaving the
// caller; everything else -- a miss, a line-straddling range, a
// write-through store -- takes the out-of-line path, which walks the
// levels in a loop (fill, then writeback, then forwarded write, depth
// first) rather than by recursion, finishing sub-accesses that hit a
// lower level with the same inline check. Both paths update the same
// counters in the same way, so which one an access takes never reaches an
// observable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bwc/memsim/cache_level.h"
#include "bwc/support/error.h"

namespace bwc::memsim {

/// Traffic across one boundary between adjacent hierarchy levels.
struct BoundaryTraffic {
  std::string name;                 // e.g. "L1-Reg", "L2-L1", "Mem-L2"
  std::uint64_t bytes_toward_cpu = 0;   // fills / loads
  std::uint64_t bytes_from_cpu = 0;     // stores / writebacks
  std::uint64_t total() const { return bytes_toward_cpu + bytes_from_cpu; }
};

/// A CPU-side memory hierarchy fed by explicit load/store calls.
class MemoryHierarchy {
 public:
  /// Construct from outermost (L1) to innermost (last-level) cache configs.
  /// An empty vector models a cache-less machine (all traffic to memory).
  explicit MemoryHierarchy(std::vector<CacheConfig> configs);

  std::size_t level_count() const { return levels_.size(); }
  const CacheLevel& level(std::size_t i) const { return levels_[i]; }

  /// Issue a program load/store of `size` bytes at `addr`.
  void load(std::uint64_t addr, std::uint64_t size);
  void store(std::uint64_t addr, std::uint64_t size);

  /// Issue a coalesced run of `count` contiguous same-kind accesses
  /// covering [addr, addr+size) in one walk. Equivalent -- boundary bytes,
  /// fills, writebacks and load/store counts all included -- to issuing
  /// the `count` accesses individually in ascending address order (or
  /// descending order with `descending`, where the lines are walked
  /// high-to-low so fill/eviction/LRU order matches a stride -1 stream),
  /// but touches each cache line once instead of once per element.
  void load_run(std::uint64_t addr, std::uint64_t size, std::uint64_t count,
                bool descending = false);
  void store_run(std::uint64_t addr, std::uint64_t size, std::uint64_t count,
                 bool descending = false);

  /// Convenience for double-precision elements.
  void load_double(std::uint64_t addr) { load(addr, 8); }
  void store_double(std::uint64_t addr) { store(addr, 8); }

  /// Traffic across each boundary; index 0 is registers<->L1 and the last
  /// entry is last-level<->memory. Always level_count()+1 entries.
  const std::vector<BoundaryTraffic>& boundaries() const { return boundary_; }

  /// Bytes moved between the last cache level and memory (both directions).
  std::uint64_t memory_traffic_bytes() const {
    return boundary_.back().total();
  }
  /// Bytes moved between registers and L1 (i.e. total program access bytes).
  std::uint64_t register_traffic_bytes() const {
    return boundary_.front().total();
  }

  std::uint64_t load_count() const { return loads_; }
  std::uint64_t store_count() const { return stores_; }

  /// Clear counters but keep cache contents (for steady-state measurement).
  void reset_stats();
  /// Clear counters and drop all cached lines.
  void reset();

  /// Discard any dirty copies of [addr, addr+size) in all levels without
  /// writing them back. Models the writeback-suppression effect of store
  /// elimination at the hardware level (ablation aid; the compiler pass
  /// itself removes the stores from the program instead).
  void discard_dirty_range(std::uint64_t addr, std::uint64_t size);

  // -- Steady-state fast-forward support (see docs/runtime.md) ------------
  //
  // A periodic access stream shifts every address by a constant delta per
  // period. When set indexing is pure modulo everywhere, the cache is a
  // deterministic automaton that *commutes* with such shifts: if the
  // resident state after period k+1 equals the state after period k
  // translated by the shift, and the per-period counter deltas agree, then
  // every remaining period repeats that delta and translation exactly.
  // The replay engine uses the snapshots below to detect that fixpoint and
  // then advances counters and state analytically.

  /// True when every level uses modulo set indexing, so resident state
  /// translates exactly under line-granular address shifts. Page
  /// randomization (Exemplar) hashes page numbers into frame positions and
  /// breaks the commutation -- such a hierarchy refuses to fast-forward.
  bool translation_invariant() const;

  /// Largest line size over all levels (1 for a cache-less machine).
  /// Address shifts that are multiples of this are line-granular at every
  /// level at once.
  std::uint64_t max_line_bytes() const;

  /// Sum of all levels' capacities. A streaming access pattern only
  /// reaches a translation-stationary resident state once it has swept
  /// past every level's capacity (all sets full, evictions steady), so
  /// fast-forward detectors size their patience budgets by this.
  std::uint64_t total_capacity_bytes() const;

  /// The hierarchy's complete counter state: per-level stats, per-boundary
  /// bytes, and load/store counts. The delta between two snapshots
  /// fingerprints the traffic of the stream replayed in between.
  struct Counters {
    std::vector<CacheLevelStats> levels;
    std::vector<std::uint64_t> toward_cpu;  // per boundary
    std::vector<std::uint64_t> from_cpu;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    friend bool operator==(const Counters&, const Counters&) = default;
  };
  void snapshot_counters(Counters* out) const;
  /// out = a - b, componentwise (a, b snapshots with a taken later).
  static void subtract_counters(const Counters& a, const Counters& b,
                                Counters* out);
  /// counters += delta * times: analytic advance of `times` periods.
  void apply_counters_scaled(const Counters& delta, std::uint64_t times);

  /// Resident tag/dirty/LRU state of every level (see CacheLevel).
  struct ResidentState {
    std::vector<CacheLevel::ResidentState> levels;
  };
  void snapshot_state(ResidentState* out) const;
  /// Current state == `snap` translated by `shift_bytes`? The shift must
  /// be a (signed) multiple of max_line_bytes() and the hierarchy
  /// translation_invariant().
  bool state_equals_shifted(const ResidentState& snap,
                            std::int64_t shift_bytes) const;
  /// Translate every level's resident state by `shift_bytes`.
  void shift_state(std::int64_t shift_bytes);

 private:
  /// True when L1 finished the access on its inline hit path.
  bool l1_hit(std::uint64_t addr, std::uint64_t size, bool is_write) {
    return !levels_.empty() && levels_[0].try_hit(addr, size, is_write);
  }
  /// Out-of-line path: every L1 line of [addr, addr+size) in stream order
  /// (high-to-low with `descending`), each followed by what it causes in
  /// the levels below.
  void access(std::uint64_t addr, std::uint64_t size, bool is_write,
              bool descending);
  /// One access to `level` that lies in a single line of that level, then
  /// the fills, writebacks and forwarded writes it causes further down.
  void touch(std::size_t level, std::uint64_t addr, std::uint64_t size,
             bool is_write);

  /// A sub-access (fill, writeback or forwarded write) not yet issued.
  struct Pending {
    std::uint64_t addr;
    std::uint64_t size;
    std::size_t level;
    bool is_write;
  };

  std::vector<CacheLevel> levels_;
  std::vector<BoundaryTraffic> boundary_;
  std::uint64_t loads_ = 0;
  std::uint64_t stores_ = 0;
  std::vector<Pending> pending_;  // touch()'s depth-first work stack
};

inline void MemoryHierarchy::load(std::uint64_t addr, std::uint64_t size) {
  BWC_CHECK(size > 0, "load size must be positive");
  ++loads_;
  boundary_[0].bytes_toward_cpu += size;
  if (l1_hit(addr, size, /*is_write=*/false)) return;
  access(addr, size, /*is_write=*/false, /*descending=*/false);
}

inline void MemoryHierarchy::store(std::uint64_t addr, std::uint64_t size) {
  BWC_CHECK(size > 0, "store size must be positive");
  ++stores_;
  boundary_[0].bytes_from_cpu += size;
  if (l1_hit(addr, size, /*is_write=*/true)) return;
  access(addr, size, /*is_write=*/true, /*descending=*/false);
}

inline void MemoryHierarchy::load_run(std::uint64_t addr, std::uint64_t size,
                                      std::uint64_t count, bool descending) {
  BWC_CHECK(size > 0 && count > 0, "run size and count must be positive");
  loads_ += count;
  boundary_[0].bytes_toward_cpu += size;
  if (l1_hit(addr, size, /*is_write=*/false)) return;
  access(addr, size, /*is_write=*/false, descending);
}

inline void MemoryHierarchy::store_run(std::uint64_t addr, std::uint64_t size,
                                       std::uint64_t count, bool descending) {
  BWC_CHECK(size > 0 && count > 0, "run size and count must be positive");
  stores_ += count;
  boundary_[0].bytes_from_cpu += size;
  if (l1_hit(addr, size, /*is_write=*/true)) return;
  access(addr, size, /*is_write=*/true, descending);
}

/// Pretty per-level summary (hits, misses, writebacks, boundary bytes).
std::string describe(const MemoryHierarchy& h);

}  // namespace bwc::memsim
