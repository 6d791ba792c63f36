#pragma once
// Discrete-event simulation engine. All facility services (network, PBS
// scheduler, transfer/compute/search services, flow orchestrator) are actors
// that schedule callbacks here. Event order is (time, sequence), so identical
// seeds yield byte-identical campaign reports.
//
// Two interchangeable queue backends honour that contract bit-for-bit:
//
//   wheel (default)  - hierarchical bucketed timer wheel (sim/wheel.hpp):
//                      O(1) schedule and cancel, occupancy-bitmap advance.
//                      This is what lets 10^5-10^6 concurrent flows schedule
//                      and cancel events without a global O(log n) heap.
//   heap             - the original global std::priority_queue, kept as a
//                      reference twin for differential tests and A13 benches.
//
// Select with PICO_SCHED=heap|wheel (or the explicit constructor). Cancelled
// events are reclaimed lazily: each backend compacts once cancelled entries
// outnumber live ones, instead of letting them ride the queue to their
// timestamps.
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "sim/time.hpp"
#include "sim/wheel.hpp"

namespace pico::sim {

/// Handle for a scheduled event; allows cancellation.
class EventHandle {
 public:
  EventHandle() = default;
  /// Cancel the event if it has not fired yet. Safe to call repeatedly,
  /// after the event fired, after its slot was reused by a later event, and
  /// after the engine is gone. O(1): the queued entry is reclaimed lazily.
  void cancel();
  bool valid() const { return table_ != nullptr; }

 private:
  friend class Engine;
  /// Engine-owned cancel slots, one per queued cancellable event. A slot's
  /// generation moves on when its event fires or is reclaimed, so a handle
  /// is current iff its generation still matches. The table (not the
  /// engine) is shared with handles: a handle outliving the engine keeps
  /// only this table alive, and scheduling a cancellable event allocates
  /// nothing once the table has grown to the peak number of pending timers.
  struct CancelTable {
    struct Slot {
      uint32_t generation = 0;
      bool cancelled = false;
    };
    std::vector<Slot> slots;
    std::vector<uint32_t> free;  ///< released slot indices, reused LIFO
    uint64_t cancelled_total = 0;
    size_t cancelled_pending = 0;
  };
  EventHandle(std::shared_ptr<CancelTable> table, uint32_t slot,
              uint32_t generation)
      : table_(std::move(table)), slot_(slot), generation_(generation) {}
  std::shared_ptr<CancelTable> table_;
  uint32_t slot_ = 0;
  uint32_t generation_ = 0;
};

class Engine {
 public:
  enum class Backend { Heap, Wheel };

  /// Backend from PICO_SCHED ("heap" / "wheel"); wheel when unset or empty.
  Engine();
  explicit Engine(Backend backend);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (must be >= now).
  EventHandle schedule_at(SimTime at, std::function<void()> fn);

  /// Schedule `fn` to run `delay` from now.
  EventHandle schedule_after(Duration delay, std::function<void()> fn);

  /// Fire-and-forget twins: no cancellation handle and no cancel slot. The
  /// flow orchestrator's hot paths (polls, retries, hops) use these.
  void post_at(SimTime at, std::function<void()> fn);
  void post_after(Duration delay, std::function<void()> fn);

  /// Run until the event queue drains or `until` is reached (events scheduled
  /// beyond `until` stay queued; now() advances to at most `until`).
  void run_until(SimTime until);

  /// Run until the queue is empty.
  void run();

  /// True if no events remain (cancelled-but-unreclaimed entries count).
  bool idle() const { return queue_depth() == 0; }

  /// Number of events processed so far (diagnostics/tests).
  uint64_t events_processed() const { return events_processed_; }

  /// Entries currently queued, including cancelled ones awaiting reclaim
  /// (exported as the sim_queue_depth gauge).
  size_t queue_depth() const {
    return backend_ == Backend::Heap ? heap_.size() : wheel_.size();
  }
  /// Cancellations observed over the engine's lifetime (exported as the
  /// sim_events_cancelled_total counter).
  uint64_t cancelled_total() const { return cancels_->cancelled_total; }
  /// Cancelled entries not yet reclaimed from the queue.
  size_t cancelled_pending() const { return cancels_->cancelled_pending; }
  /// Cancel slots held by queued cancellable events (fired, reclaimed and
  /// compacted-away events have released theirs).
  size_t cancel_slots_in_use() const {
    return cancels_->slots.size() - cancels_->free.size();
  }
  /// Lazy compaction sweeps performed (diagnostics/tests).
  uint64_t compactions() const { return compactions_; }

  const char* backend_name() const {
    return backend_ == Backend::Heap ? "heap" : "wheel";
  }

 private:
  struct HeapLater {
    bool operator()(const SchedEntry& a, const SchedEntry& b) const {
      if (a.at_ns != b.at_ns) return a.at_ns > b.at_ns;
      return a.seq > b.seq;
    }
  };

  void enqueue(SimTime at, std::function<void()> fn, uint32_t slot);
  /// Return a slot to the free list; outstanding handles go stale.
  void release_slot(uint32_t slot);
  bool pop_next(int64_t limit_ns, SchedEntry* out);
  /// Fire `entry` unless cancelled; returns true if it ran.
  bool fire(SchedEntry& entry);
  /// Reclaim cancelled entries once they outnumber live ones.
  void maybe_compact();
  /// Prefetch the likely-next entry's functor target and cancel slot.
  void prefetch_next() const;

  Backend backend_;
  SimTime now_ = SimTime::zero();
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t compactions_ = 0;
  std::shared_ptr<EventHandle::CancelTable> cancels_;
  std::vector<SchedEntry> heap_;  ///< Backend::Heap: binary heap (HeapLater)
  TimerWheel wheel_;              ///< Backend::Wheel
};

}  // namespace pico::sim
