#include "bwc/memsim/hierarchy.h"

#include <algorithm>
#include <sstream>

#include "bwc/support/error.h"

namespace bwc::memsim {

MemoryHierarchy::MemoryHierarchy(std::vector<CacheConfig> configs) {
  levels_.reserve(configs.size());
  for (auto& c : configs) levels_.emplace_back(std::move(c));

  boundary_.resize(levels_.size() + 1);
  if (levels_.empty()) {
    boundary_[0].name = "Mem-Reg";
  } else {
    boundary_[0].name = levels_[0].config().name + "-Reg";
    for (std::size_t i = 1; i < levels_.size(); ++i)
      boundary_[i].name =
          levels_[i].config().name + "-" + levels_[i - 1].config().name;
    boundary_.back().name = "Mem-" + levels_.back().config().name;
  }
}

void MemoryHierarchy::access(std::uint64_t addr, std::uint64_t size,
                             bool is_write, bool descending) {
  if (levels_.empty()) return;  // cache-less: straight to memory
  const std::uint64_t line = levels_[0].config().line_bytes;
  const std::uint64_t mask = ~(line - 1);  // line sizes are powers of two
  const std::uint64_t first = addr & mask;
  const std::uint64_t last = (addr + size - 1) & mask;
  // Each line is touched with the part of the access that lands in it.
  const std::uint64_t end = addr + size;
  const auto touch_line = [&](std::uint64_t la) {
    const std::uint64_t begin = std::max(addr, la);
    touch(0, begin, std::min(end, la + line) - begin, is_write);
  };
  if (!descending) {
    for (std::uint64_t la = first; la <= last; la += line) touch_line(la);
  } else {
    // A stride -1 stream touches its lines high-to-low; walking the run
    // the same way keeps fills, evictions and LRU order element-exact.
    for (std::uint64_t la = last;; la -= line) {
      touch_line(la);
      if (la == first) break;
    }
  }
}

// The recursive definition of a line touch -- access this level, then
// fully complete the fill from the next level, then the writeback of the
// victim into it, then the forwarded write -- run as a loop. A fill that
// lies in one line of the next level (the usual case: lines grow toward
// memory) is taken at once as the loop's next access, since it comes
// first; writebacks and forwarded writes wait on an explicit depth-first
// stack, pushed in reverse so they pop in order. A sub-access spanning
// several lines of its level (a next level with smaller lines) is split
// into per-line pieces in ascending order, the order the per-line walk of
// a range always used.
void MemoryHierarchy::touch(std::size_t level, std::uint64_t addr,
                            std::uint64_t size, bool is_write) {
  std::size_t top = 0;
  const auto push = [&](std::uint64_t a, std::uint64_t n, std::size_t lvl,
                        bool w) {
    if (top == pending_.size()) pending_.resize(2 * top + 8);
    pending_[top++] = Pending{a, n, lvl, w};
  };
  // Load the next single-line sub-access; false when none is left.
  const auto pop = [&] {
    for (;;) {
      if (top == 0) return false;
      const Pending p = pending_[--top];
      const std::uint64_t sub_line = levels_[p.level].config().line_bytes;
      const std::uint64_t first = p.addr & ~(sub_line - 1);
      const std::uint64_t last = (p.addr + p.size - 1) & ~(sub_line - 1);
      if (first == last) {
        level = p.level;
        addr = p.addr;
        size = p.size;
        is_write = p.is_write;
        return true;
      }
      const std::uint64_t end = p.addr + p.size;
      for (std::uint64_t piece = last;; piece -= sub_line) {
        const std::uint64_t begin = std::max(p.addr, piece);
        push(begin, std::min(end, piece + sub_line) - begin, p.level,
             p.is_write);
        if (piece == first) break;
      }
    }
  };
  for (;;) {
    CacheLevel& cache = levels_[level];
    // Fills and writebacks mostly hit the next level: finish those on the
    // inline hit path. (Level 0 gets here after its probe already missed.)
    if (level > 0 && cache.try_hit(addr, size, is_write)) {
      if (!pop()) return;
      continue;
    }
    const std::uint64_t line = cache.config().line_bytes;
    const std::uint64_t la = addr & ~(line - 1);
    const CacheLevel::AccessResult result = cache.access(la, is_write);
    const std::size_t next = level + 1;
    const bool below = next < levels_.size();
    BoundaryTraffic& boundary = boundary_[next];
    if (is_write) {
      const bool through =
          cache.config().write_policy == WritePolicy::kWriteThrough;
      const bool bypass =
          !result.hit && !result.filled;  // no-write-allocate miss
      if (through || bypass) {
        // Forward only the bytes of this access (they lie in this line).
        boundary.bytes_from_cpu += size;
        if (below) push(addr, size, next, /*w=*/true);
      }
    }
    if (result.evicted_dirty) {
      // Writeback of the victim line into the next level.
      boundary.bytes_from_cpu += line;
      if (below) push(result.evicted_line_addr, line, next, /*w=*/true);
    }
    if (result.filled) {
      // Fill: pull the whole line from the next level.
      boundary.bytes_toward_cpu += line;
      if (below) {
        if (levels_[next].config().line_bytes >= line) {
          level = next;
          addr = la;
          size = line;
          is_write = false;
          continue;
        }
        push(la, line, next, /*w=*/false);
      }
    }
    if (!pop()) return;
  }
}

void MemoryHierarchy::reset_stats() {
  for (auto& level : levels_) level.reset_stats();
  for (auto& b : boundary_) {
    b.bytes_toward_cpu = 0;
    b.bytes_from_cpu = 0;
  }
  loads_ = stores_ = 0;
}

void MemoryHierarchy::reset() {
  reset_stats();
  for (auto& level : levels_) level.reset();
}

bool MemoryHierarchy::translation_invariant() const {
  for (const auto& level : levels_)
    if (!level.modulo_indexed()) return false;
  return true;
}

std::uint64_t MemoryHierarchy::max_line_bytes() const {
  std::uint64_t line = 1;
  for (const auto& level : levels_)
    line = std::max(line, level.config().line_bytes);
  return line;
}

std::uint64_t MemoryHierarchy::total_capacity_bytes() const {
  std::uint64_t total = 0;
  for (const auto& level : levels_) total += level.config().size_bytes;
  return total;
}

void MemoryHierarchy::snapshot_counters(Counters* out) const {
  out->levels.resize(levels_.size());
  out->toward_cpu.resize(boundary_.size());
  out->from_cpu.resize(boundary_.size());
  for (std::size_t i = 0; i < levels_.size(); ++i)
    out->levels[i] = levels_[i].stats();
  for (std::size_t i = 0; i < boundary_.size(); ++i) {
    out->toward_cpu[i] = boundary_[i].bytes_toward_cpu;
    out->from_cpu[i] = boundary_[i].bytes_from_cpu;
  }
  out->loads = loads_;
  out->stores = stores_;
}

void MemoryHierarchy::subtract_counters(const Counters& a, const Counters& b,
                                        Counters* out) {
  out->levels.resize(a.levels.size());
  out->toward_cpu.resize(a.toward_cpu.size());
  out->from_cpu.resize(a.from_cpu.size());
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    const CacheLevelStats& x = a.levels[i];
    const CacheLevelStats& y = b.levels[i];
    out->levels[i] = {x.read_hits - y.read_hits,
                      x.read_misses - y.read_misses,
                      x.write_hits - y.write_hits,
                      x.write_misses - y.write_misses,
                      x.writebacks - y.writebacks,
                      x.evictions - y.evictions};
  }
  for (std::size_t i = 0; i < a.toward_cpu.size(); ++i) {
    out->toward_cpu[i] = a.toward_cpu[i] - b.toward_cpu[i];
    out->from_cpu[i] = a.from_cpu[i] - b.from_cpu[i];
  }
  out->loads = a.loads - b.loads;
  out->stores = a.stores - b.stores;
}

void MemoryHierarchy::apply_counters_scaled(const Counters& delta,
                                            std::uint64_t times) {
  for (std::size_t i = 0; i < levels_.size(); ++i)
    levels_[i].add_stats_scaled(delta.levels[i], times);
  for (std::size_t i = 0; i < boundary_.size(); ++i) {
    boundary_[i].bytes_toward_cpu += delta.toward_cpu[i] * times;
    boundary_[i].bytes_from_cpu += delta.from_cpu[i] * times;
  }
  loads_ += delta.loads * times;
  stores_ += delta.stores * times;
}

void MemoryHierarchy::snapshot_state(ResidentState* out) const {
  out->levels.resize(levels_.size());
  for (std::size_t i = 0; i < levels_.size(); ++i)
    levels_[i].snapshot_state(&out->levels[i]);
}

bool MemoryHierarchy::state_equals_shifted(const ResidentState& snap,
                                           std::int64_t shift_bytes) const {
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    const auto line =
        static_cast<std::int64_t>(levels_[i].config().line_bytes);
    BWC_ASSERT(shift_bytes % line == 0,
               "state shift must be line-granular at every level");
    if (!levels_[i].state_equals_shifted(snap.levels[i], shift_bytes / line))
      return false;
  }
  return true;
}

void MemoryHierarchy::shift_state(std::int64_t shift_bytes) {
  for (auto& level : levels_) {
    const auto line = static_cast<std::int64_t>(level.config().line_bytes);
    BWC_ASSERT(shift_bytes % line == 0,
               "state shift must be line-granular at every level");
    level.shift_state(shift_bytes / line);
  }
}

void MemoryHierarchy::discard_dirty_range(std::uint64_t addr,
                                          std::uint64_t size) {
  BWC_CHECK(size > 0, "range size must be positive");
  for (auto& level : levels_) {
    const std::uint64_t line = level.config().line_bytes;
    const std::uint64_t first = addr / line * line;
    const std::uint64_t last = (addr + size - 1) / line * line;
    for (std::uint64_t la = first; la <= last; la += line)
      level.invalidate(la);
  }
}

std::string describe(const MemoryHierarchy& h) {
  std::ostringstream os;
  for (std::size_t i = 0; i < h.level_count(); ++i) {
    const auto& c = h.level(i).config();
    const auto& s = h.level(i).stats();
    os << c.name << " (" << c.size_bytes / 1024 << " KB, " << c.line_bytes
       << "B lines, "
       << (c.associativity == 0 ? std::string("full")
                                : std::to_string(c.associativity) + "-way")
       << "): accesses=" << s.accesses() << " misses=" << s.misses()
       << " writebacks=" << s.writebacks << "\n";
  }
  for (const auto& b : h.boundaries()) {
    os << b.name << ": toward-cpu=" << b.bytes_toward_cpu
       << "B from-cpu=" << b.bytes_from_cpu << "B total=" << b.total()
       << "B\n";
  }
  return os.str();
}

}  // namespace bwc::memsim
