#include "obs/timeline.hpp"

namespace cryptodrop::obs {

std::string_view timeline_event_kind_name(TimelineEventKind kind) {
  switch (kind) {
    case TimelineEventKind::entropy_delta: return "entropy_delta";
    case TimelineEventKind::type_change: return "type_change";
    case TimelineEventKind::similarity_drop: return "similarity_drop";
    case TimelineEventKind::deletion: return "deletion";
    case TimelineEventKind::funneling: return "funneling";
    case TimelineEventKind::union_indication: return "union";
    case TimelineEventKind::burst_rate: return "burst_rate";
    case TimelineEventKind::suspension: return "suspension";
    case TimelineEventKind::resume: return "resume";
  }
  return "?";
}

void TimelineRing::push(TimelineEvent event) {
  if (capacity_ == 0) return;
  event.seq = total_recorded_++;
  if (events_.size() == capacity_) events_.pop_front();
  events_.push_back(std::move(event));
}

Json to_json(const ForensicTimeline& timeline) {
  Json events = Json::array();
  for (const TimelineEvent& ev : timeline.events) {
    Json entry = Json::object();
    entry.set("seq", ev.seq)
        .set("op_seq", ev.op_seq)
        .set("kind", timeline_event_kind_name(ev.kind))
        .set("points", ev.points)
        .set("score_before", ev.score_before)
        .set("score_after", ev.score_after)
        .set("path", ev.path)
        .set("detail", ev.detail)
        .set("note", ev.note);
    if (!ev.backend.empty()) entry.set("backend", ev.backend);
    events.push(std::move(entry));
  }

  Json j = Json::object();
  j.set("pid", timeline.pid)
      .set("process_name", timeline.process_name)
      .set("suspended", timeline.suspended)
      .set("final_score", timeline.final_score)
      .set("threshold", timeline.threshold)
      .set("events_recorded", timeline.events_recorded)
      .set("events_dropped", timeline.events_dropped)
      .set("events", std::move(events));
  return j;
}

}  // namespace cryptodrop::obs
