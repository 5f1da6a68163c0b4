// Span log of the traced run: one span per timed public call, kept as
// obs::SpanRecord and written with obs::to_trace_json, so `cryptodrop
// trace-report --in FILE` reads it like any trace the program exports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "measure.hpp"
#include "obs/span.hpp"

namespace replaybench {

/// Collects closed spans in memory up to a budget; write() exports them.
class SpanLog {
 public:
  /// Keeps at most `budget` spans; later ones are counted as dropped.
  explicit SpanLog(std::size_t budget) : budget_(budget), epoch_(Clock::now()) {}

  /// Whether another span still fits in the budget.
  [[nodiscard]] bool has_room() const { return spans_.size() < budget_; }

  /// A fresh span id, taken when a span opens so that the spans inside
  /// it can name it as their parent.
  std::uint64_t open() { return ++last_id_; }

  /// Records a closed span on track `tid` under `parent_id` (0: a root).
  /// `name` must be a literal. Spans of one trial or daemon cycle share
  /// the `id` arg; `op`/`path` become args when set.
  void add(std::string_view name, std::uint32_t tid, Clock::time_point start,
           Clock::time_point end, std::uint64_t span_id, std::uint64_t parent_id,
           std::uint64_t id, std::string op = {}, std::string path = {});

  /// Spans kept / dropped over budget.
  [[nodiscard]] std::size_t kept() const { return spans_.size(); }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  /// Writes the spans as Chrome trace-event JSON to `file`. False on I/O
  /// failure.
  bool write(const std::string& file) const;

 private:
  std::size_t budget_;
  Clock::time_point epoch_;
  std::vector<cryptodrop::obs::SpanRecord> spans_;
  std::size_t dropped_ = 0;
  std::uint64_t last_id_ = 0;
};

}  // namespace replaybench
