#include "spans.hpp"

#include <algorithm>
#include <fstream>

#include "obs/trace_export.hpp"

namespace replaybench {
namespace {

std::uint64_t ns_since(Clock::time_point epoch, Clock::time_point t) {
  return t <= epoch ? 0
                    : static_cast<std::uint64_t>(
                          std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch).count());
}

}  // namespace

void SpanLog::add(std::string_view name, std::uint32_t tid, Clock::time_point start,
                  Clock::time_point end, std::uint64_t span_id, std::uint64_t parent_id,
                  std::uint64_t id, std::string op, std::string path) {
  if (!has_room()) {
    ++dropped_;
    return;
  }
  cryptodrop::obs::SpanRecord span;
  span.span_id = span_id;
  span.parent_id = parent_id;
  span.pid = 1;
  span.tid = tid;
  span.name = name;
  span.start_ns = ns_since(epoch_, start);
  const std::uint64_t end_ns = ns_since(epoch_, end);
  span.dur_ns = end_ns > span.start_ns ? end_ns - span.start_ns : 0;
  span.args.push_back({"id", true, static_cast<double>(id), {}});
  if (!op.empty()) span.args.push_back({"op", false, 0.0, std::move(op)});
  if (!path.empty()) span.args.push_back({"path", false, 0.0, std::move(path)});
  spans_.push_back(std::move(span));
}

bool SpanLog::write(const std::string& file) const {
  // Spans are recorded as they close, children before parents; the
  // exporter wants each track in start order, parents first.
  cryptodrop::obs::SpanSnapshot snapshot;
  snapshot.spans = spans_;
  std::sort(snapshot.spans.begin(), snapshot.spans.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
    return a.span_id < b.span_id;
  });
  for (std::size_t i = 0; i < snapshot.spans.size(); ++i) snapshot.spans[i].seq = i;
  snapshot.recorded = spans_.size() + dropped_;
  snapshot.dropped = dropped_;
  std::ofstream out(file);
  out << cryptodrop::obs::to_trace_json(snapshot).to_string() << '\n';
  out.close();
  return static_cast<bool>(out);
}

}  // namespace replaybench
