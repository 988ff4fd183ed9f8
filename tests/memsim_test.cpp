#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bwc/memsim/hierarchy.h"
#include "bwc/support/error.h"
#include "bwc/support/prng.h"

namespace bwc::memsim {
namespace {

CacheConfig tiny_l1() {
  return {.name = "L1",
          .size_bytes = 256,
          .line_bytes = 32,
          .associativity = 2};
}

TEST(CacheConfig, ValidatesGeometry) {
  CacheConfig c = tiny_l1();
  EXPECT_NO_THROW(c.validate());
  c.line_bytes = 24;  // not a power of two
  EXPECT_THROW(c.validate(), Error);
  c = tiny_l1();
  c.associativity = 3;  // 8 lines not divisible... 8/3
  EXPECT_THROW(c.validate(), Error);
  c = tiny_l1();
  EXPECT_EQ(c.num_lines(), 8u);
  EXPECT_EQ(c.num_sets(), 4u);
}

TEST(CacheLevel, ColdMissThenHit) {
  CacheLevel l1(tiny_l1());
  auto r = l1.access(0, false);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.filled);
  r = l1.access(0, false);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(l1.stats().read_misses, 1u);
  EXPECT_EQ(l1.stats().read_hits, 1u);
}

TEST(CacheLevel, LruEvictionOrder) {
  // 2-way sets; three lines mapping to the same set evict the least
  // recently used.
  CacheLevel l1(tiny_l1());  // 4 sets, set = (addr/32) % 4
  const std::uint64_t a = 0;        // set 0
  const std::uint64_t b = 4 * 32;   // set 0
  const std::uint64_t c = 8 * 32;   // set 0
  l1.access(a, false);
  l1.access(b, false);
  l1.access(a, false);  // a most recent
  l1.access(c, false);  // evicts b
  EXPECT_TRUE(l1.contains(a));
  EXPECT_FALSE(l1.contains(b));
  EXPECT_TRUE(l1.contains(c));
}

TEST(CacheLevel, WriteBackMarksDirtyAndReportsVictim) {
  CacheLevel l1(tiny_l1());
  l1.access(0, true);  // write miss, allocate, dirty
  l1.access(4 * 32, false);
  auto r = l1.access(8 * 32, false);  // evicts line 0 (dirty)
  EXPECT_TRUE(r.evicted_dirty);
  EXPECT_EQ(r.evicted_line_addr, 0u);
  EXPECT_EQ(l1.stats().writebacks, 1u);
}

TEST(CacheLevel, CleanEvictionNoWriteback) {
  CacheLevel l1(tiny_l1());
  l1.access(0, false);
  l1.access(4 * 32, false);
  auto r = l1.access(8 * 32, false);
  EXPECT_FALSE(r.evicted_dirty);
  EXPECT_EQ(l1.stats().writebacks, 0u);
  EXPECT_EQ(l1.stats().evictions, 1u);
}

TEST(CacheLevel, NoWriteAllocateBypasses) {
  CacheConfig c = tiny_l1();
  c.allocate_policy = AllocatePolicy::kNoWriteAllocate;
  CacheLevel l1(c);
  auto r = l1.access(0, true);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.filled);
  EXPECT_FALSE(l1.contains(0));
}

TEST(CacheLevel, WriteThroughNeverDirty) {
  CacheConfig c = tiny_l1();
  c.write_policy = WritePolicy::kWriteThrough;
  CacheLevel l1(c);
  l1.access(0, true);
  l1.access(4 * 32, false);
  auto r = l1.access(8 * 32, false);  // evicts line 0
  EXPECT_FALSE(r.evicted_dirty);
}

TEST(CacheLevel, InvalidateReportsDirty) {
  CacheLevel l1(tiny_l1());
  l1.access(0, true);
  EXPECT_TRUE(l1.invalidate(0));
  EXPECT_FALSE(l1.contains(0));
  EXPECT_FALSE(l1.invalidate(0));
}

TEST(CacheLevel, DirectMappedConflicts) {
  CacheConfig c = tiny_l1();
  c.associativity = 1;  // 8 sets
  CacheLevel l1(c);
  // Two addresses 256 bytes apart map to the same set and ping-pong.
  for (int i = 0; i < 4; ++i) {
    l1.access(0, false);
    l1.access(256, false);
  }
  EXPECT_EQ(l1.stats().read_misses, 8u);  // never a hit
}

TEST(CacheLevel, FullyAssociativeNoConflicts) {
  CacheConfig c = tiny_l1();
  c.associativity = 0;  // fully associative: 8 lines
  CacheLevel l1(c);
  for (int rep = 0; rep < 3; ++rep) {
    for (std::uint64_t i = 0; i < 8; ++i) l1.access(i * 256, false);
  }
  EXPECT_EQ(l1.stats().read_misses, 8u);
  EXPECT_EQ(l1.stats().read_hits, 16u);
}

// -- MemoryHierarchy -----------------------------------------------------------

std::vector<CacheConfig> two_level() {
  return {
      {.name = "L1", .size_bytes = 256, .line_bytes = 32, .associativity = 2},
      {.name = "L2", .size_bytes = 1024, .line_bytes = 64, .associativity = 2},
  };
}

TEST(Hierarchy, BoundaryNames) {
  MemoryHierarchy h(two_level());
  ASSERT_EQ(h.boundaries().size(), 3u);
  EXPECT_EQ(h.boundaries()[0].name, "L1-Reg");
  EXPECT_EQ(h.boundaries()[1].name, "L2-L1");
  EXPECT_EQ(h.boundaries()[2].name, "Mem-L2");
}

TEST(Hierarchy, RegisterTrafficCountsAccessBytes) {
  MemoryHierarchy h(two_level());
  h.load(0, 8);
  h.store(8, 8);
  EXPECT_EQ(h.register_traffic_bytes(), 16u);
  EXPECT_EQ(h.load_count(), 1u);
  EXPECT_EQ(h.store_count(), 1u);
}

TEST(Hierarchy, ColdReadPullsLinesThroughBothLevels) {
  MemoryHierarchy h(two_level());
  h.load(0, 8);
  // L1 miss: 32B from L2; L2 miss: 64B from memory.
  EXPECT_EQ(h.boundaries()[1].bytes_toward_cpu, 32u);
  EXPECT_EQ(h.boundaries()[2].bytes_toward_cpu, 64u);
  // Second load in same L1 line: everything hits.
  h.load(8, 8);
  EXPECT_EQ(h.boundaries()[1].bytes_toward_cpu, 32u);
  EXPECT_EQ(h.boundaries()[2].bytes_toward_cpu, 64u);
}

TEST(Hierarchy, SpatialLocalityWithinL2Line) {
  MemoryHierarchy h(two_level());
  h.load(0, 8);   // misses both
  h.load(32, 8);  // misses L1, hits L2 (same 64B L2 line)
  EXPECT_EQ(h.boundaries()[1].bytes_toward_cpu, 64u);
  EXPECT_EQ(h.boundaries()[2].bytes_toward_cpu, 64u);
}

TEST(Hierarchy, StreamingWriteTrafficIsReadPlusWriteback) {
  MemoryHierarchy h(two_level());
  // Stream-write 4 KB: every line is fetched (write-allocate) and later
  // written back when evicted. Flush by streaming a second region.
  const std::uint64_t n = 4096;
  for (std::uint64_t a = 0; a < n; a += 8) h.store(a, 8);
  for (std::uint64_t a = 100000; a < 100000 + n; a += 8) h.load(a, 8);
  const auto& mem = h.boundaries()[2];
  // Reads: 4KB (write region) + 4KB (flush region), plus at most a couple
  // of lines re-fetched when a straggler L1 writeback misses in L2.
  EXPECT_GE(mem.bytes_toward_cpu, 2 * n);
  EXPECT_LE(mem.bytes_toward_cpu, 2 * n + 128);
  // Writebacks: the whole dirty write region (allow the tail still cached).
  EXPECT_GE(mem.bytes_from_cpu, n - 1024);
  EXPECT_LE(mem.bytes_from_cpu, n);
}

TEST(Hierarchy, ReadOnlyStreamNoWritebacks) {
  MemoryHierarchy h(two_level());
  for (std::uint64_t a = 0; a < 8192; a += 8) h.load(a, 8);
  EXPECT_EQ(h.boundaries()[2].bytes_from_cpu, 0u);
  EXPECT_EQ(h.boundaries()[2].bytes_toward_cpu, 8192u);
}

TEST(Hierarchy, WritebackPropagatesToL2Counter) {
  MemoryHierarchy h(two_level());
  h.store(0, 8);  // dirty line in L1
  // Evict it by filling set 0 of L1 (4 sets of 32B lines; set stride 128).
  h.load(128, 8);
  h.load(256, 8);
  // L1->L2 boundary must show the 32B writeback.
  EXPECT_GE(h.boundaries()[1].bytes_from_cpu, 32u);
}

TEST(Hierarchy, AccessStraddlingLines) {
  MemoryHierarchy h(two_level());
  h.load(28, 8);  // crosses the 32B boundary: touches two L1 lines
  EXPECT_EQ(h.level(0).stats().read_misses, 2u);
}

TEST(Hierarchy, CachelessMachineAllTrafficToMemory) {
  MemoryHierarchy h({});
  h.load(0, 8);
  h.store(0, 8);
  ASSERT_EQ(h.boundaries().size(), 1u);
  EXPECT_EQ(h.boundaries()[0].name, "Mem-Reg");
  EXPECT_EQ(h.memory_traffic_bytes(), 16u);
}

TEST(Hierarchy, ResetStatsKeepsContents) {
  MemoryHierarchy h(two_level());
  h.load(0, 8);
  h.reset_stats();
  EXPECT_EQ(h.memory_traffic_bytes(), 0u);
  h.load(0, 8);  // still cached: no new memory traffic
  EXPECT_EQ(h.boundaries()[2].bytes_toward_cpu, 0u);
}

TEST(Hierarchy, FullResetDropsContents) {
  MemoryHierarchy h(two_level());
  h.load(0, 8);
  h.reset();
  h.load(0, 8);
  EXPECT_EQ(h.boundaries()[2].bytes_toward_cpu, 64u);  // cold again
}

TEST(Hierarchy, DiscardDirtyRangeSuppressesWriteback) {
  MemoryHierarchy h(two_level());
  for (std::uint64_t a = 0; a < 256; a += 8) h.store(a, 8);
  h.discard_dirty_range(0, 256);
  // Stream something else through; no writebacks should appear.
  for (std::uint64_t a = 100000; a < 110000; a += 8) h.load(a, 8);
  EXPECT_EQ(h.boundaries()[2].bytes_from_cpu, 0u);
  EXPECT_EQ(h.boundaries()[1].bytes_from_cpu, 0u);
}

TEST(Hierarchy, DescribeMentionsLevelsAndBoundaries) {
  MemoryHierarchy h(two_level());
  h.load(0, 8);
  const std::string d = describe(h);
  EXPECT_NE(d.find("L1"), std::string::npos);
  EXPECT_NE(d.find("Mem-L2"), std::string::npos);
}


// -- Differential oracle: CacheLevel and MemoryHierarchy vs a reference ------
//
// RefLevel is the straightforward timestamp-LRU cache: one entry per
// physical way with a last-used tick, hits found by scanning the ways, the
// victim being the first invalid way or else the valid way with the
// oldest tick. RefHierarchy walks it recursively (fill, then writeback,
// then forwarded write). Both exist only here, as the definition the
// MRU-ordered sets, the inline hit path and the flat miss path must match
// bit for bit.

class RefLevel {
 public:
  explicit RefLevel(const CacheConfig& c)
      : c_(c), sets_(c.num_sets()), ways_(c.ways()),
        lines_(sets_ * ways_) {}

  CacheLevel::AccessResult access(std::uint64_t la, bool is_write) {
    const std::uint64_t tag = la / c_.line_bytes;
    Line* set = &lines_[set_of(la) * ways_];
    const std::uint64_t now = ++tick_;
    Line* invalid = nullptr;
    Line* lru = nullptr;
    CacheLevel::AccessResult r;
    for (std::uint64_t w = 0; w < ways_; ++w) {
      Line& l = set[w];
      if (!l.valid) {
        if (invalid == nullptr) invalid = &l;
      } else if (l.tag == tag) {
        l.last_used = now;
        if (is_write) {
          ++stats.write_hits;
          l.dirty = l.dirty || c_.write_policy == WritePolicy::kWriteBack;
        } else {
          ++stats.read_hits;
        }
        r.hit = true;
        return r;
      } else if (lru == nullptr || l.last_used < lru->last_used) {
        lru = &l;
      }
    }
    if (is_write) {
      ++stats.write_misses;
      if (c_.allocate_policy == AllocatePolicy::kNoWriteAllocate) return r;
    } else {
      ++stats.read_misses;
    }
    Line& victim = invalid != nullptr ? *invalid : *lru;
    if (invalid == nullptr) {
      ++stats.evictions;
      if (victim.dirty) {
        ++stats.writebacks;
        r.evicted_dirty = true;
        r.evicted_line_addr = victim.tag * c_.line_bytes;
      }
    }
    victim = Line{tag, now, true,
                  is_write && c_.write_policy == WritePolicy::kWriteBack};
    r.filled = true;
    return r;
  }

  bool invalidate(std::uint64_t la) {
    Line* set = &lines_[set_of(la) * ways_];
    for (std::uint64_t w = 0; w < ways_; ++w) {
      if (set[w].valid && set[w].tag == la / c_.line_bytes) {
        const bool dirty = set[w].dirty;
        set[w] = Line{};
        return dirty;
      }
    }
    return false;
  }

  /// Per set, valid lines youngest first as (tag << 1) | dirty.
  std::vector<std::vector<std::uint64_t>> state() const {
    std::vector<std::vector<std::uint64_t>> out(sets_);
    for (std::uint64_t s = 0; s < sets_; ++s) {
      std::vector<const Line*> valid;
      for (std::uint64_t w = 0; w < ways_; ++w)
        if (lines_[s * ways_ + w].valid) valid.push_back(&lines_[s * ways_ + w]);
      std::sort(valid.begin(), valid.end(), [](const Line* a, const Line* b) {
        return a->last_used > b->last_used;
      });
      for (const Line* l : valid) out[s].push_back((l->tag << 1) | l->dirty);
    }
    return out;
  }

  void shift(std::int64_t delta) {
    std::vector<Line> moved(lines_.size());
    for (std::uint64_t s = 0; s < sets_; ++s)
      for (std::uint64_t w = 0; w < ways_; ++w)
        moved[((s + delta) & (sets_ - 1)) * ways_ + w] = lines_[s * ways_ + w];
    lines_ = moved;
    for (Line& l : lines_) l.tag += l.valid ? delta : 0;
  }

  void reset() { lines_.assign(lines_.size(), Line{}); }

  CacheLevelStats stats;

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t last_used = 0;
    bool valid = false;
    bool dirty = false;
  };
  std::uint64_t set_of(std::uint64_t la) const {
    const std::uint64_t line = la / c_.line_bytes;
    if (c_.page_randomization_seed == 0) return line % sets_;
    const std::uint64_t per_page = c_.page_bytes / c_.line_bytes;
    std::uint64_t state = la / c_.page_bytes ^ c_.page_randomization_seed;
    const std::uint64_t hash = splitmix64(state);
    if (per_page <= sets_)
      return hash % (sets_ / per_page) * per_page + line % per_page;
    return (line ^ hash) % sets_;
  }

  CacheConfig c_;
  std::uint64_t sets_, ways_;
  std::vector<Line> lines_;
  std::uint64_t tick_ = 0;
};

/// Flatten a CacheLevel snapshot into RefLevel::state()'s shape.
std::vector<std::vector<std::uint64_t>> state_of(const CacheLevel& level) {
  CacheLevel::ResidentState snap;
  level.snapshot_state(&snap);
  std::vector<std::vector<std::uint64_t>> out(snap.set_begin.size() - 1);
  for (std::size_t s = 0; s + 1 < snap.set_begin.size(); ++s)
    out[s].assign(snap.entries.begin() + snap.set_begin[s],
                  snap.entries.begin() + snap.set_begin[s + 1]);
  return out;
}

/// The reference meaning of CacheLevel::state_equals_shifted: set s of
/// `now` is set (s - delta) mod sets of `snap`, every tag moved by delta.
bool ref_equals_shifted(const std::vector<std::vector<std::uint64_t>>& snap,
                        const std::vector<std::vector<std::uint64_t>>& now,
                        std::int64_t delta) {
  const std::uint64_t sets = now.size();
  const auto d = static_cast<std::uint64_t>(delta);
  for (std::uint64_t s = 0; s < sets; ++s) {
    const std::vector<std::uint64_t>& was = snap[(s - d) & (sets - 1)];
    if (was.size() != now[s].size()) return false;
    for (std::size_t k = 0; k < was.size(); ++k)
      if (now[s][k] != ((((was[k] >> 1) + d) << 1) | (was[k] & 1)))
        return false;
  }
  return true;
}

std::vector<CacheConfig> oracle_geometries() {
  std::vector<CacheConfig> out;
  for (const std::uint32_t ways : {1u, 2u, 4u, 8u, 0u}) {
    out.push_back({.name = "w" + std::to_string(ways),
                   .size_bytes = 512,
                   .line_bytes = 32,
                   .associativity = ways});
  }
  CacheConfig through = out[2];
  through.name = "through";
  through.write_policy = WritePolicy::kWriteThrough;
  out.push_back(through);
  CacheConfig bypass = out[1];
  bypass.name = "no-alloc";
  bypass.allocate_policy = AllocatePolicy::kNoWriteAllocate;
  out.push_back(bypass);
  CacheConfig random = out[0];
  random.name = "page-random";
  random.page_randomization_seed = 0x5eed;
  random.page_bytes = 128;
  out.push_back(random);
  CacheConfig big_pages = out[1];  // pages larger than the cache
  big_pages.name = "page-random-big";
  big_pages.page_randomization_seed = 7;
  big_pages.page_bytes = 4096;
  out.push_back(big_pages);
  return out;
}

TEST(CacheLevelOracle, RandomStreamsMatchTimestampLru) {
  for (const CacheConfig& config : oracle_geometries()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(config.name + " seed " + std::to_string(seed));
      CacheLevel level(config);
      RefLevel ref(config);
      Prng rng(seed * 7919 + config.associativity);
      // A line pool ~3x the capacity keeps hits, misses and evictions all
      // frequent.
      const std::uint64_t pool = 3 * config.num_lines();
      CacheLevel::ResidentState snap;
      std::vector<std::vector<std::uint64_t>> ref_snap;  // same moment
      for (int step = 0; step < 4000; ++step) {
        const std::uint64_t la = (64 + rng.uniform(pool)) * config.line_bytes;
        const std::uint64_t op = rng.uniform(100);
        if (op < 80) {
          const bool w = rng.chance(0.4);
          const auto got = level.access(la, w);
          const auto want = ref.access(la, w);
          ASSERT_EQ(got.hit, want.hit) << "step " << step;
          ASSERT_EQ(got.filled, want.filled) << "step " << step;
          ASSERT_EQ(got.evicted_dirty, want.evicted_dirty) << "step " << step;
          if (want.evicted_dirty) {
            ASSERT_EQ(got.evicted_line_addr, want.evicted_line_addr);
          }
        } else if (op < 88) {
          ASSERT_EQ(level.invalidate(la), ref.invalidate(la)) << "step " << step;
        } else if (op < 90) {
          level.reset_stats();
          ref.stats = {};
        } else if (op < 91) {
          level.reset();
          ref.reset();
          ref.stats = {};
        } else if (op < 94) {
          level.snapshot_state(&snap);
          ref_snap = ref.state();
        } else if (level.modulo_indexed()) {
          const std::int64_t delta =
              static_cast<std::int64_t>(rng.uniform(2 * pool)) -
              static_cast<std::int64_t>(pool / 2);
          if (!ref_snap.empty()) {
            // A possibly stale snapshot: the answer must match the
            // reference's own comparison, at the drawn shift and at 0.
            for (const std::int64_t d : {delta, std::int64_t{0}}) {
              ASSERT_EQ(level.state_equals_shifted(snap, d),
                        ref_equals_shifted(ref_snap, ref.state(), d))
                  << "step " << step << " shift " << d;
            }
          }
          // A fresh snapshot matches its own translation exactly.
          level.snapshot_state(&snap);
          ref_snap = ref.state();
          level.shift_state(delta);
          ref.shift(delta);
          ASSERT_TRUE(level.state_equals_shifted(snap, delta))
              << "step " << step;
        }
        ASSERT_EQ(level.stats(), ref.stats) << "step " << step;
        ASSERT_EQ(state_of(level), ref.state()) << "step " << step;
        ASSERT_EQ(level.contains(la), [&] {
          for (const auto& set : ref.state())
            for (const std::uint64_t e : set)
              if ((e >> 1) == la / config.line_bytes) return true;
          return false;
        }()) << "step " << step;
      }
    }
  }
}

/// The recursive hierarchy walk over RefLevels: every access is split
/// into lines, each line access followed by its fill, writeback and
/// forwarded write into the next level.
class RefHierarchy {
 public:
  explicit RefHierarchy(const std::vector<CacheConfig>& configs)
      : toward(configs.size() + 1), from(configs.size() + 1),
        configs_(configs) {
    for (const CacheConfig& c : configs) levels.emplace_back(c);
  }

  void issue(std::uint64_t addr, std::uint64_t size, std::uint64_t count,
             bool is_write, bool descending) {
    (is_write ? stores : loads) += count;
    (is_write ? from : toward)[0] += size;
    access(0, addr, size, is_write, descending);
  }

  std::vector<RefLevel> levels;
  std::vector<std::uint64_t> toward, from;
  std::uint64_t loads = 0, stores = 0;

 private:
  void access(std::size_t i, std::uint64_t addr, std::uint64_t size,
              bool is_write, bool descending = false) {
    if (i == levels.size()) return;
    const std::uint64_t line = configs_[i].line_bytes;
    const std::uint64_t first = addr / line * line;
    const std::uint64_t last = (addr + size - 1) / line * line;
    const auto touch = [&](std::uint64_t la) {
      const auto r = levels[i].access(la, is_write);
      if (r.filled) {
        toward[i + 1] += line;
        access(i + 1, la, line, false);
      }
      if (r.evicted_dirty) {
        from[i + 1] += line;
        access(i + 1, r.evicted_line_addr, line, true);
      }
      if (is_write &&
          (configs_[i].write_policy == WritePolicy::kWriteThrough ||
           (!r.hit && !r.filled))) {
        const std::uint64_t begin = std::max(addr, la);
        const std::uint64_t end = std::min(addr + size, la + line);
        from[i + 1] += end - begin;
        access(i + 1, begin, end - begin, true);
      }
    };
    if (!descending) {
      for (std::uint64_t la = first; la <= last; la += line) touch(la);
    } else {
      for (std::uint64_t la = last + line; la != first;) touch(la -= line);
    }
  }

  std::vector<CacheConfig> configs_;
};

void expect_same_counters(const MemoryHierarchy& h, const RefHierarchy& ref,
                          int step) {
  ASSERT_EQ(h.load_count(), ref.loads) << "step " << step;
  ASSERT_EQ(h.store_count(), ref.stores) << "step " << step;
  for (std::size_t b = 0; b < h.boundaries().size(); ++b) {
    ASSERT_EQ(h.boundaries()[b].bytes_toward_cpu, ref.toward[b])
        << "boundary " << b << " step " << step;
    ASSERT_EQ(h.boundaries()[b].bytes_from_cpu, ref.from[b])
        << "boundary " << b << " step " << step;
  }
  for (std::size_t i = 0; i < h.level_count(); ++i) {
    ASSERT_EQ(h.level(i).stats(), ref.levels[i].stats)
        << "level " << i << " step " << step;
    ASSERT_EQ(state_of(h.level(i)), ref.levels[i].state())
        << "level " << i << " step " << step;
  }
}

TEST(HierarchyOracle, RandomStreamsMatchRecursiveWalk) {
  const CacheConfig l1{.name = "L1", .size_bytes = 256, .line_bytes = 32,
                       .associativity = 2};
  CacheConfig l1_through = l1;
  l1_through.write_policy = WritePolicy::kWriteThrough;
  l1_through.allocate_policy = AllocatePolicy::kNoWriteAllocate;
  const CacheConfig l2{.name = "L2", .size_bytes = 1024, .line_bytes = 64,
                       .associativity = 4};
  // A next level with *smaller* lines: fills and writebacks span lines.
  // Fully associative, so the order of the pieces shows in its LRU order.
  const CacheConfig l2_small{.name = "L2", .size_bytes = 512,
                             .line_bytes = 16, .associativity = 0};
  const CacheConfig l3{.name = "L3", .size_bytes = 4096, .line_bytes = 128,
                       .associativity = 0};
  const std::vector<std::vector<CacheConfig>> machines = {
      {l1, l2}, {l1_through, l2, l3}, {l1, l2_small, l3}, {l1}};
  for (std::size_t m = 0; m < machines.size(); ++m) {
    SCOPED_TRACE("machine " + std::to_string(m));
    MemoryHierarchy h(machines[m]);
    RefHierarchy ref(machines[m]);
    Prng rng(1000 + m);
    for (int step = 0; step < 6000; ++step) {
      // Mostly short strided walks, so the inline hit path, misses and
      // line-straddling runs all occur.
      const std::uint64_t addr = 4096 + 8 * rng.uniform(1024) + rng.uniform(8);
      const bool w = rng.chance(0.35);
      switch (rng.uniform(4)) {
        case 0:  // one element, the inline path when it hits
        case 1: {
          const std::uint64_t size = 1 + rng.uniform(8);
          w ? h.store(addr, size) : h.load(addr, size);
          ref.issue(addr, size, 1, w, false);
          break;
        }
        default: {  // a coalesced run of 1..40 elements, either direction
          const std::uint64_t count = 1 + rng.uniform(40);
          const bool down = rng.chance(0.3);
          w ? h.store_run(addr, 8 * count, count, down)
            : h.load_run(addr, 8 * count, count, down);
          ref.issue(addr, 8 * count, count, w, down);
        }
      }
      expect_same_counters(h, ref, step);
    }
  }
}

TEST(HierarchyOracle, InlineHitCountsLikeTheMissPath) {
  // The same resident-line access, once finished inline (the line is in
  // L1) and once through the out-of-line path (an element straddling two
  // resident lines): L1 and boundary counters move identically per line.
  MemoryHierarchy inline_path(two_level());
  MemoryHierarchy out_of_line(two_level());
  for (MemoryHierarchy* h : {&inline_path, &out_of_line}) {
    h->load(0, 64);  // two L1 lines resident
    h->reset_stats();
  }
  inline_path.load(24, 8);
  inline_path.load(32, 8);
  out_of_line.load(28, 8);  // crosses the 32 B line boundary
  EXPECT_EQ(inline_path.level(0).stats(), out_of_line.level(0).stats());
  EXPECT_EQ(inline_path.level(0).stats().read_hits, 2u);
  EXPECT_EQ(inline_path.boundaries()[1].total(), 0u);
  EXPECT_EQ(out_of_line.boundaries()[1].total(), 0u);
  // Stores: the inline hit marks the line dirty exactly like the miss
  // path's fill would, so the later writebacks agree too.
  inline_path.store(8, 8);      // inline: resident line 0
  out_of_line.store(4, 8);      // straddles nothing but starts unaligned
  EXPECT_EQ(inline_path.level(0).stats().write_hits,
            out_of_line.level(0).stats().write_hits);
  for (MemoryHierarchy* h : {&inline_path, &out_of_line})
    for (std::uint64_t a = 4096; a < 8192; a += 32) h->load(a, 8);
  EXPECT_EQ(inline_path.boundaries()[1].bytes_from_cpu,
            out_of_line.boundaries()[1].bytes_from_cpu);
  EXPECT_EQ(inline_path.boundaries()[1].bytes_from_cpu, 32u);
}

}  // namespace
}  // namespace bwc::memsim
