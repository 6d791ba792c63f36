#pragma once
// Hierarchical bucketed timer wheel: the O(1) event queue behind sim::Engine.
//
// 4 levels x 256 slots at ~1 ms granularity (2^20 ns per tick; byte k of the
// tick indexes level k), an overflow list for events beyond the ~52-day
// horizon, and a small (at, seq) min-heap of "due" entries holding everything
// at or before the wheel's current tick. The heap keeps the engine's
// documented FIFO contract exact: events fire in (time, sequence) order even
// when several distinct timestamps share one wheel tick.
//
// Placement rule: an entry lands at the level of the highest tick byte in
// which it differs from the current tick (Varghese-Lauer style). That makes
// slot -> time resolution unambiguous — an occupied slot at level k is always
// ahead of the current tick's byte k — so advancing never scans empty time:
// per-level 256-bit occupancy bitmaps give the next candidate in O(1), and
// each entry cascades at most once per level on its way down.
//
// Cancellation is O(1) (a flag in the engine's cancel-slot table); dead
// entries are reclaimed either when they reach the front of the queue or by
// compact(), which the engine invokes lazily once cancelled entries
// outnumber live ones.
#include <cstdint>
#include <functional>
#include <vector>

namespace pico::sim {

/// A queued event. `slot` indexes the engine's cancel-slot table; kNoSlot
/// for fire-and-forget posts (no handle).
struct SchedEntry {
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  int64_t at_ns = 0;
  uint64_t seq = 0;
  std::function<void()> fn;
  uint32_t slot = kNoSlot;
};

class TimerWheel {
 public:
  static constexpr int kTickShiftNs = 20;  ///< 2^20 ns ~= 1.05 ms per tick
  static constexpr int kLevels = 4;
  static constexpr int kSlotsPerLevel = 256;

  /// Queue an entry. `at_ns` may be in the past relative to the wheel's
  /// current position (it goes straight to the due heap, exact order kept).
  void insert(SchedEntry entry);

  /// Pop the earliest entry with at_ns <= limit_ns, advancing the wheel's
  /// internal position (cascading levels) as needed. Returns false when no
  /// such entry remains; the wheel position is left untouched in that case.
  bool pop_next(int64_t limit_ns, SchedEntry* out);

  /// Remove every entry for which `dead` returns true (called exactly once
  /// per queued entry); returns how many were dropped. O(size).
  size_t compact(const std::function<bool(const SchedEntry&)>& dead);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The entry most likely to pop next (the due-heap front; null when the
  /// current tick is drained). The engine uses it to prefetch the next
  /// event's captured state while the current event runs — at 10^5+
  /// concurrent flows the captured run record is a guaranteed DRAM miss,
  /// and this overlaps it with useful work.
  const SchedEntry* peek_due() const {
    return due_.empty() ? nullptr : due_.data();
  }

 private:
  void push_due(SchedEntry entry);
  /// Append to a slot bucket, adopting a spare buffer if it has none.
  void push_slot(std::vector<SchedEntry>& bucket, SchedEntry entry);
  /// Clear a drained bucket and move its buffer to spare_ if the buffer is
  /// small and spare_ has room.
  void spare(std::vector<SchedEntry>& bucket);
  SchedEntry pop_due();
  /// Tick of the earliest level candidate (slot lower bound), or INT64_MAX.
  /// Sets *level to the candidate's level.
  int64_t next_candidate(int* level) const;
  void redistribute(int level, int slot);

  int64_t cur_tick_ = 0;
  size_t size_ = 0;
  /// Min-heap by (at_ns, seq): everything at or before cur_tick_.
  std::vector<SchedEntry> due_;
  std::vector<SchedEntry> slots_[kLevels][kSlotsPerLevel];
  uint64_t bitmap_[kLevels][kSlotsPerLevel / 64] = {};
  std::vector<SchedEntry> overflow_;
  /// Small buffers of drained slot buckets, adopted by the next empty
  /// bucket to fill, so a steady load stops allocating once it has cycled
  /// through the wheel, whichever slots it lands in. A burst's large
  /// buffers are not kept here: spare_ never pins more than
  /// kSpareMax x kSpareMaxEntries entries (~230 KB).
  static constexpr size_t kSpareMaxEntries = 64;
  static constexpr size_t kSpareMax = 64;
  std::vector<std::vector<SchedEntry>> spare_;
};

}  // namespace pico::sim
