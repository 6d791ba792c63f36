#include "sim/wheel.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace pico::sim {

namespace {

constexpr int64_t kNoTick = std::numeric_limits<int64_t>::max();

struct DueLater {
  bool operator()(const SchedEntry& a, const SchedEntry& b) const {
    if (a.at_ns != b.at_ns) return a.at_ns > b.at_ns;
    return a.seq > b.seq;
  }
};

}  // namespace

void TimerWheel::push_due(SchedEntry entry) {
  due_.push_back(std::move(entry));
  std::push_heap(due_.begin(), due_.end(), DueLater{});
}

void TimerWheel::push_slot(std::vector<SchedEntry>& bucket,
                           SchedEntry entry) {
  if (bucket.capacity() == 0 && !spare_.empty()) {
    bucket.swap(spare_.back());
    spare_.pop_back();
  }
  bucket.push_back(std::move(entry));
}

void TimerWheel::spare(std::vector<SchedEntry>& bucket) {
  bucket.clear();
  if (bucket.capacity() == 0 || bucket.capacity() > kSpareMaxEntries ||
      spare_.size() >= kSpareMax) {
    return;
  }
  spare_.push_back(std::move(bucket));
}

SchedEntry TimerWheel::pop_due() {
  std::pop_heap(due_.begin(), due_.end(), DueLater{});
  SchedEntry out = std::move(due_.back());
  due_.pop_back();
  return out;
}

void TimerWheel::insert(SchedEntry entry) {
  ++size_;
  int64_t tick = entry.at_ns >> kTickShiftNs;
  if (tick <= cur_tick_) {
    push_due(std::move(entry));
    return;
  }
  uint64_t diff = static_cast<uint64_t>(tick) ^ static_cast<uint64_t>(cur_tick_);
  if (diff >> (8 * kLevels)) {
    overflow_.push_back(std::move(entry));
    return;
  }
  int level = (63 - std::countl_zero(diff)) / 8;
  int slot = static_cast<int>((tick >> (8 * level)) & 0xFF);
  push_slot(slots_[level][slot], std::move(entry));
  bitmap_[level][slot / 64] |= 1ull << (slot % 64);
}

int64_t TimerWheel::next_candidate(int* level) const {
  // Level-k candidates are always within the current level-(k+1) window while
  // higher-level candidates sit in later windows, so the first occupied level
  // (scanning low to high) owns the minimum.
  for (int k = 0; k < kLevels; ++k) {
    int from = static_cast<int>((cur_tick_ >> (8 * k)) & 0xFF) + 1;
    for (int w = from / 64; w < kSlotsPerLevel / 64; ++w) {
      uint64_t bits = bitmap_[k][w];
      if (w == from / 64) bits &= ~0ull << (from % 64);
      if (!bits) continue;
      int slot = w * 64 + std::countr_zero(bits);
      int64_t mask = (int64_t{1} << (8 * (k + 1))) - 1;
      *level = k;
      return (cur_tick_ & ~mask) | (static_cast<int64_t>(slot) << (8 * k));
    }
  }
  *level = -1;
  return kNoTick;
}

void TimerWheel::redistribute(int level, int slot) {
  std::vector<SchedEntry> pending;
  pending.swap(slots_[level][slot]);
  bitmap_[level][slot / 64] &= ~(1ull << (slot % 64));
  size_ -= pending.size();  // insert() re-counts each entry
  for (auto& e : pending) insert(std::move(e));
  spare(pending);  // else freed here
}

bool TimerWheel::pop_next(int64_t limit_ns, SchedEntry* out) {
  for (;;) {
    int64_t due_at = due_.empty() ? kNoTick : due_.front().at_ns;
    int level = -1;
    int64_t cand_tick = next_candidate(&level);
    int64_t cand_lower_ns = kNoTick;
    bool from_overflow = false;
    if (cand_tick != kNoTick) {
      cand_lower_ns = cand_tick << kTickShiftNs;
    } else if (!overflow_.empty()) {
      // Overflow entries are always beyond every in-level entry (they differ
      // from the current tick above byte 3), so they are only consulted once
      // the levels drain.
      int64_t mn = kNoTick;
      for (const auto& e : overflow_) mn = std::min(mn, e.at_ns);
      cand_lower_ns = mn;
      cand_tick = mn >> kTickShiftNs;
      from_overflow = true;
    }
    // A due entry at or before every remaining candidate fires first; ties
    // are impossible (due entries live at or before cur_tick_, candidates
    // strictly after it). When everything is empty all three sentinels are
    // INT64_MAX and the comparison degenerates — hence the explicit guard.
    if (due_at <= limit_ns && due_at <= cand_lower_ns) {
      if (due_.empty()) return false;  // wheel fully drained
      *out = pop_due();
      --size_;
      return true;
    }
    if (cand_lower_ns > limit_ns) return false;
    if (from_overflow) {
      cur_tick_ = cand_tick;
      std::vector<SchedEntry> pending;
      pending.swap(overflow_);
      size_ -= pending.size();
      for (auto& e : pending) insert(std::move(e));
      continue;
    }
    if (level == 0) {
      cur_tick_ = cand_tick;
      int slot = static_cast<int>(cand_tick & 0xFF);
      std::vector<SchedEntry>& bucket = slots_[0][slot];
      for (auto& e : bucket) push_due(std::move(e));
      spare(bucket);  // else the slot keeps its buffer
      bitmap_[0][slot / 64] &= ~(1ull << (slot % 64));
      continue;
    }
    // Enter the candidate window at its base and cascade the slot down one
    // level; each entry cascades at most once per level, so advance stays
    // amortized O(1) per event.
    cur_tick_ = cand_tick;
    redistribute(level, static_cast<int>((cand_tick >> (8 * level)) & 0xFF));
  }
}

size_t TimerWheel::compact(
    const std::function<bool(const SchedEntry&)>& dead) {
  size_t removed = 0;
  auto sweep = [&](std::vector<SchedEntry>& v) {
    size_t before = v.size();
    v.erase(std::remove_if(v.begin(), v.end(), dead), v.end());
    removed += before - v.size();
  };
  for (int k = 0; k < kLevels; ++k) {
    for (int s = 0; s < kSlotsPerLevel; ++s) {
      if (slots_[k][s].empty()) continue;
      sweep(slots_[k][s]);
      if (slots_[k][s].empty()) bitmap_[k][s / 64] &= ~(1ull << (s % 64));
    }
  }
  sweep(overflow_);
  size_t due_before = due_.size();
  sweep(due_);
  if (due_.size() != due_before) {
    std::make_heap(due_.begin(), due_.end(), DueLater{});
  }
  size_ -= removed;
  return removed;
}

}  // namespace pico::sim
