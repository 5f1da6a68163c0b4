// Per-process forensic timelines: a bounded ring of indicator events so
// every suspension verdict can be *explained* after the fact.
//
// The paper's evaluation was produced by hand-instrumenting the authors'
// minifilter; this is the first-class version. The engine appends one
// event per reputation-score change (type-change, similarity loss,
// entropy delta, deletion, funneling, union, burst-rate), carrying the
// score before/after and an indicator-specific detail, and a terminal
// event when the process is suspended or resumed. `engine.explain(pid)`
// returns the ring's contents; obs::to_json serializes them in the
// format documented in docs/OBSERVABILITY.md.
//
// The ring is the engine's one per-process score history. It is bounded
// (ScoringConfig::timeline_capacity; 0 turns recording off) so a
// long-lived process cannot grow memory without bound: when full, the
// oldest event is evicted and `dropped()` counts it. Event sequence
// numbers are per-process and survive eviction, so gaps are visible.
//
// Thread-safety: a TimelineRing is plain data. The engine stores one per
// scoreboard entry and only touches it under the engine lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"

namespace cryptodrop::obs {

/// What a timeline event records. The indicator kinds mirror
/// core::Indicator; `suspension` and `resume` are verdict events.
enum class TimelineEventKind : std::uint8_t {
  entropy_delta,
  type_change,
  similarity_drop,
  deletion,
  funneling,
  union_indication,
  burst_rate,
  suspension,
  resume,
};

/// Stable lowercase name ("entropy_delta", "suspension", ...).
std::string_view timeline_event_kind_name(TimelineEventKind kind);

/// One entry in a process's forensic timeline.
struct TimelineEvent {
  std::uint64_t seq = 0;     ///< Per-process event number (survives eviction).
  std::uint64_t op_seq = 0;  ///< Engine operation count when the event fired.
  TimelineEventKind kind{};
  int points = 0;        ///< Reputation points assessed (0 for verdicts).
  int score_before = 0;  ///< Process score immediately before the event.
  int score_after = 0;   ///< Process score immediately after the event.
  std::string path;      ///< File the event concerns (may be empty).
  /// Indicator-specific measurement: entropy events carry the
  /// write-read delta, similarity events the sdhash score (0..100),
  /// suspension events the threshold crossed. 0 when not applicable.
  double detail = 0.0;
  /// Free-form annotation (e.g. "pdf -> high-entropy data" on a
  /// type-change, "via union" on a suspension). May be empty.
  std::string note;
  /// Entropy events only: the backends whose delta vote fired,
  /// comma-joined in schema order ("shannon", "chi_square,daa").
  /// Empty for every other kind, and then left out of the JSON.
  std::string backend;
};

/// Fixed-capacity ring of TimelineEvents; push() evicts the oldest once
/// full. Capacity 0 disables recording entirely (push is a no-op).
class TimelineRing {
 public:
  /// Default capacity matches ScoringConfig::timeline_capacity's default.
  explicit TimelineRing(std::size_t capacity = 128) : capacity_(capacity) {}

  /// Appends `event`, stamping its `seq`, evicting the oldest event if
  /// the ring is at capacity. No-op when capacity is 0.
  void push(TimelineEvent event);

  /// Events currently held, oldest first.
  [[nodiscard]] const std::deque<TimelineEvent>& events() const { return events_; }

  /// Total events ever pushed (including evicted ones).
  [[nodiscard]] std::uint64_t total_recorded() const { return total_recorded_; }

  /// Events evicted so far (total_recorded() - events().size()).
  [[nodiscard]] std::uint64_t dropped() const {
    return total_recorded_ - events_.size();
  }

  /// The fixed capacity this ring was constructed with.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::uint64_t total_recorded_ = 0;
  std::deque<TimelineEvent> events_;
};

/// A process's complete forensic record, as returned by
/// core::AnalysisEngine::explain() and embedded in ProcessReports: who
/// the process is, its verdict state, and the (bounded) event history
/// explaining how its score got there.
struct ForensicTimeline {
  std::uint32_t pid = 0;  ///< Scoreboard key (family root under family scoring).
  std::string process_name;
  bool suspended = false;
  int final_score = 0;
  int threshold = 0;
  std::uint64_t events_recorded = 0;  ///< Including evicted events.
  std::uint64_t events_dropped = 0;   ///< Evicted by the bounded ring.
  std::vector<TimelineEvent> events;  ///< Oldest first.
};

/// Serializes one timeline per the docs/OBSERVABILITY.md format.
Json to_json(const ForensicTimeline& timeline);

}  // namespace cryptodrop::obs
