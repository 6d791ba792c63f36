#pragma once
// Event trace recorder: services append structured spans ("transfer task X
// active 12.3s") that the campaign reporter aggregates into Table 1 / Fig 4
// statistics and that tests assert on.
//
// Spans carry causal identity (trace_id / span_id / parent_id) so a campaign
// -> flow run -> step -> provider attempt forms a tree that the telemetry
// exporters (Chrome trace_event, JSONL) can render hierarchically. Ids are
// assigned by telemetry::Tracer; spans appended directly keep id 0 (roots).
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/json.hpp"

namespace pico::sim {

/// A point annotation attached to a span (fault injections, breaker state
/// transitions, retry decisions).
struct SpanEvent {
  std::string name;
  SimTime at;
  util::Json attrs;
};

/// A completed interval attributed to a component and category.
struct Span {
  std::string component;  ///< e.g. "transfer", "compute", "flow"
  std::string category;   ///< e.g. "active", "overhead", "queue"
  std::string label;      ///< free-form: task/flow id
  SimTime start;
  SimTime end;
  util::Json attrs;       ///< extra structured attributes
  uint64_t trace_id = 0;  ///< campaign-scoped trace identity (0 = untraced)
  uint64_t span_id = 0;   ///< unique within the trace (0 = unassigned)
  uint64_t parent_id = 0; ///< causal parent span (0 = root)
  std::vector<SpanEvent> events;
  /// Recording order, assigned by Trace::add under its mutex. Exporters use
  /// it as the final sort-key tie-break (timestamp, span_id, seq) so spans
  /// closed at the same integer nanosecond — common with parallel data-plane
  /// workers — serialize in a stable order. Kept last so positional
  /// aggregate initializers written before it existed stay valid.
  uint64_t seq = 0;

  double duration_seconds() const { return (end - start).seconds(); }
};

/// Append-only trace. `add` is guarded by a mutex so parallel data-plane
/// workers may record concurrently with the (single-threaded) sim engine.
/// The read accessors (`spans`, `select`, `find`, `children_of`) hand out
/// references into the underlying vector and therefore require quiescence:
/// call them only when no writer is active (after engine().run() returns, or
/// from the engine thread when no pool work records spans) — the usual
/// post-run reporting pattern.
///
/// `add` also maintains two indexes so `find` and `children_of` cost
/// O(matches) rather than O(spans recorded): the first span of every
/// (component, category, label) key, and a per-parent sibling list in
/// recording order. Both hold 32-bit span indexes (a few bytes per span), so
/// a trace holds at most 2^32 - 1 spans.
class Trace {
 public:
  void add(Span span);
  void clear();

  const std::vector<Span>& spans() const { return spans_; }

  /// All spans matching component (empty = any) and category (empty = any).
  std::vector<const Span*> select(const std::string& component,
                                  const std::string& category = "") const;

  /// First span matching (component, category, label), or nullptr.
  const Span* find(const std::string& component, const std::string& category,
                   const std::string& label) const;

  /// Completed children of `parent_id`, in recording order.
  std::vector<const Span*> children_of(uint64_t parent_id) const;

  /// Serialize to JSON lines for offline inspection. Lines are ordered by
  /// (start time, span_id, seq) and a span's events by (time, append order),
  /// so two runs of the same simulation produce byte-identical output.
  std::string to_jsonl() const;

  /// Spans sorted by the exporters' deterministic key: start.ns, then
  /// span_id, then recording seq.
  std::vector<const Span*> sorted_spans() const;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Open-addressing slot: a key's 32-bit hash and the index of its first
  /// span. Probes compare the span's fields, so a collision only costs a
  /// probe, never a wrong answer.
  struct KeySlot {
    uint32_t hash = 0;
    uint32_t span = kNone;
    bool empty() const { return span == kNone; }
  };
  /// Open-addressing slot: one parent's children as an intrusive list
  /// threaded through next_sibling_.
  struct ParentSlot {
    uint64_t parent = 0;
    uint32_t head = kNone;
    uint32_t tail = kNone;
    bool empty() const { return head == kNone; }
  };

  /// Slot holding the key, or the empty slot where it would go.
  size_t key_slot(uint32_t hash, const std::string& component,
                  const std::string& category, const std::string& label) const;
  /// Slot holding `parent_id`'s children, or the empty slot where they would.
  size_t parent_slot(uint64_t parent_id) const;
  void index_key(uint32_t at);
  void index_child(uint32_t at);

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_seq_ = 0;
  std::vector<KeySlot> first_by_key_;
  size_t key_count_ = 0;
  std::vector<ParentSlot> children_;
  size_t parent_count_ = 0;
  std::vector<uint32_t> next_sibling_;  ///< parallel to spans_
};

}  // namespace pico::sim
