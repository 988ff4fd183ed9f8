#include "bwc/memsim/cache_level.h"

#include <algorithm>
#include <cstddef>

#include "bwc/support/error.h"
#include "bwc/support/prng.h"

namespace bwc::memsim {

namespace {
bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

void CacheConfig::validate() const {
  BWC_CHECK(is_pow2(line_bytes), "line size must be a power of two");
  BWC_CHECK(is_pow2(size_bytes), "cache size must be a power of two");
  BWC_CHECK(size_bytes >= line_bytes, "cache must hold at least one line");
  const std::uint64_t lines = size_bytes / line_bytes;
  const std::uint64_t w = associativity == 0 ? lines : associativity;
  BWC_CHECK(w >= 1 && w <= lines, "associativity out of range");
  BWC_CHECK(lines % w == 0, "line count must be divisible by associativity");
  BWC_CHECK(is_pow2(lines / w), "set count must be a power of two");
  if (page_randomization_seed != 0) {
    BWC_CHECK(is_pow2(page_bytes) && page_bytes >= line_bytes,
              "page randomization needs a power-of-two page holding at "
              "least one line");
  }
}

CacheLevel::CacheLevel(CacheConfig config) : config_(std::move(config)) {
  config_.validate();
  sets_ = config_.num_sets();
  ways_ = config_.ways();
  while ((std::uint64_t{1} << line_shift_) < config_.line_bytes) ++line_shift_;
  slots_.assign(static_cast<std::size_t>(sets_ * ways_), 0);
  valid_.assign(static_cast<std::size_t>(sets_), 0);
  write_back_ = config_.write_policy == WritePolicy::kWriteBack;
  write_allocate_ = config_.allocate_policy == AllocatePolicy::kWriteAllocate;
  set_mask_ = sets_ - 1;
  randomized_ = config_.page_randomization_seed != 0;
  if (randomized_) {
    while ((std::uint64_t{1} << page_shift_) < config_.page_bytes)
      ++page_shift_;
    const std::uint64_t lines_per_page =
        config_.page_bytes / config_.line_bytes;
    line_in_page_mask_ = lines_per_page - 1;
    frames_geometry_ = lines_per_page <= sets_;
    if (frames_geometry_) frame_mask_ = sets_ / lines_per_page - 1;
  }
}

void CacheLevel::reset() {
  reset_stats();
  valid_.assign(valid_.size(), 0);
}

std::size_t CacheLevel::randomized_set_index(std::uint64_t addr) const {
  // Random physical page placement: the page picks a pseudo-random frame
  // slot; lines keep their order within the page (spatial locality holds).
  // Geometry is power-of-two throughout (validated), so the page split and
  // frame pick are shifts and masks; the per-page hash is memoized because
  // streaming accesses stay in one page for many consecutive lines.
  const std::uint64_t line_id = addr >> line_shift_;
  const std::uint64_t page = addr >> page_shift_;
  if (page != cached_page_) {
    std::uint64_t state = page ^ config_.page_randomization_seed;
    cached_page_hash_ = splitmix64(state);
    cached_page_ = page;
  }
  const std::uint64_t hash = cached_page_hash_;
  const std::uint64_t line_in_page = line_id & line_in_page_mask_;
  if (frames_geometry_) {
    return static_cast<std::size_t>((hash & frame_mask_) *
                                        (line_in_page_mask_ + 1) +
                                    line_in_page);
  }
  // Degenerate geometry (page larger than the cache): hash per page but
  // keep distinct lines in distinct sets.
  return static_cast<std::size_t>((line_id ^ hash) & set_mask_);
}

CacheLevel::AccessResult CacheLevel::access(std::uint64_t line_addr,
                                            bool is_write) {
  BWC_ASSERT(line_addr % config_.line_bytes == 0,
             "line address must be line-aligned");
  const std::uint64_t tag = line_addr >> line_shift_;
  const std::size_t s = set_index(line_addr);
  std::uint64_t* const set = slots_.data() + s * ways_;
  const std::uint32_t n = valid_[s];

  AccessResult result;
  for (std::uint32_t k = 0; k < n; ++k) {
    if ((set[k] >> 1) != tag) continue;
    const bool dirty_now = is_write && write_back_;
    promote(set, k, set[k] | static_cast<std::uint64_t>(dirty_now));
    if (is_write) {
      ++stats_.write_hits;
    } else {
      ++stats_.read_hits;
    }
    result.hit = true;
    return result;
  }

  // Miss path.
  if (is_write) {
    ++stats_.write_misses;
    if (!write_allocate_) return result;  // bypass: no fill, no eviction
  } else {
    ++stats_.read_misses;
  }

  // A set with a free slot fills it; a full set drops its LRU slot.
  std::uint32_t moved = n;
  if (n == ways_) {
    ++stats_.evictions;
    const std::uint64_t victim = set[n - 1];
    if ((victim & 1) != 0) {
      ++stats_.writebacks;
      result.evicted_dirty = true;
      result.evicted_line_addr = (victim >> 1) << line_shift_;
    }
    moved = n - 1;
  } else {
    valid_[s] = n + 1;
  }
  promote(set, moved,
          (tag << 1) | static_cast<std::uint64_t>(is_write && write_back_));
  result.filled = true;
  return result;
}

bool CacheLevel::contains(std::uint64_t line_addr) const {
  const std::uint64_t tag = tag_of(line_addr);
  const std::size_t s = set_index(line_addr);
  const std::uint64_t* const set = slots_.data() + s * ways_;
  for (std::uint32_t k = 0; k < valid_[s]; ++k)
    if ((set[k] >> 1) == tag) return true;
  return false;
}

bool CacheLevel::invalidate(std::uint64_t line_addr) {
  const std::uint64_t tag = tag_of(line_addr);
  const std::size_t s = set_index(line_addr);
  std::uint64_t* const set = slots_.data() + s * ways_;
  const std::uint32_t n = valid_[s];
  for (std::uint32_t k = 0; k < n; ++k) {
    if ((set[k] >> 1) != tag) continue;
    const bool was_dirty = (set[k] & 1) != 0;
    // Close the gap: older lines keep their order, the free slot is last.
    for (std::uint32_t j = k + 1; j < n; ++j) set[j - 1] = set[j];
    valid_[s] = n - 1;
    return was_dirty;
  }
  return false;
}

std::uint64_t CacheLevel::valid_line_count() const {
  std::uint64_t count = 0;
  for (const std::uint32_t n : valid_) count += n;
  return count;
}

// Slots already sit in recency order, so a snapshot is a copy of each
// set's valid prefix.
void CacheLevel::snapshot_state(ResidentState* out) const {
  out->entries.clear();
  out->set_begin.clear();
  out->set_begin.reserve(static_cast<std::size_t>(sets_) + 1);
  for (std::uint64_t s = 0; s < sets_; ++s) {
    out->set_begin.push_back(static_cast<std::uint32_t>(out->entries.size()));
    const std::uint64_t* const set = slots_.data() + s * ways_;
    out->entries.insert(out->entries.end(), set, set + valid_[s]);
  }
  out->set_begin.push_back(static_cast<std::uint32_t>(out->entries.size()));
}

bool CacheLevel::state_equals_shifted(const ResidentState& snap,
                                      std::int64_t delta_lines) const {
  BWC_ASSERT(modulo_indexed(),
             "state translation requires modulo set indexing");
  const std::uint64_t delta = static_cast<std::uint64_t>(delta_lines);
  // Shifting a tag by delta adds delta << 1 to its packed slot and leaves
  // the dirty bit alone.
  const std::uint64_t slot_delta = delta << 1;
  for (std::uint64_t s = 0; s < sets_; ++s) {
    // Set s's content must be snapshot set (s - delta) mod sets, shifted.
    const std::uint64_t src = (s - delta) & set_mask_;
    const std::uint32_t begin = snap.set_begin[static_cast<std::size_t>(src)];
    const std::uint32_t end = snap.set_begin[static_cast<std::size_t>(src) + 1];
    if (valid_[s] != end - begin) return false;
    const std::uint64_t* const set = slots_.data() + s * ways_;
    for (std::uint32_t k = 0; k < valid_[s]; ++k)
      if (set[k] != snap.entries[begin + k] + slot_delta) return false;
  }
  return true;
}

void CacheLevel::shift_state(std::int64_t delta_lines) {
  BWC_ASSERT(modulo_indexed(),
             "state translation requires modulo set indexing");
  const std::uint64_t delta = static_cast<std::uint64_t>(delta_lines);
  const std::uint64_t delta_sets = delta & set_mask_;
  if (delta_sets != 0) {
    // New set s takes old set (s - delta) mod sets: a right rotation of
    // the set-major slot array (and of the valid counts) by delta_sets.
    const auto pivot = static_cast<std::ptrdiff_t>(sets_ - delta_sets);
    std::rotate(valid_.begin(), valid_.begin() + pivot, valid_.end());
    std::rotate(slots_.begin(),
                slots_.begin() + pivot * static_cast<std::ptrdiff_t>(ways_),
                slots_.end());
  }
  const std::uint64_t slot_delta = delta << 1;
  for (std::uint64_t s = 0; s < sets_; ++s) {
    std::uint64_t* const set = slots_.data() + s * ways_;
    for (std::uint32_t k = 0; k < valid_[s]; ++k) set[k] += slot_delta;
  }
}

void CacheLevel::add_stats_scaled(const CacheLevelStats& delta,
                                  std::uint64_t times) {
  stats_.read_hits += delta.read_hits * times;
  stats_.read_misses += delta.read_misses * times;
  stats_.write_hits += delta.write_hits * times;
  stats_.write_misses += delta.write_misses * times;
  stats_.writebacks += delta.writebacks * times;
  stats_.evictions += delta.evictions * times;
}

}  // namespace bwc::memsim
