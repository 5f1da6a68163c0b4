#include "daemon/wire.hpp"

#include "obs/timeline.hpp"

namespace cryptodrop::daemon {

Json report_to_json(const core::ProcessReport& report) {
  Json indicators = Json::object();
  indicators.set("entropy_delta", report.entropy_events)
      .set("type_change", report.type_change_events)
      .set("similarity_drop", report.similarity_drop_events)
      .set("deletion", report.deletion_events)
      .set("funneling", report.funneling_events)
      .set("burst_rate", report.rate_events);

  Json read_ext = Json::array();
  for (const std::string& ext : report.read_extensions) read_ext.push(ext);
  Json write_ext = Json::array();
  for (const std::string& ext : report.write_extensions) write_ext.push(ext);

  Json j = Json::object();
  j.set("pid", report.pid)
      .set("name", report.name)
      .set("score", report.score)
      .set("threshold", report.threshold)
      .set("suspended", report.suspended)
      .set("union_triggered", report.union_triggered)
      .set("union_count", report.union_count)
      .set("read_entropy_mean", report.read_entropy_mean)
      .set("write_entropy_mean", report.write_entropy_mean)
      .set("indicators", std::move(indicators))
      .set("read_extensions", std::move(read_ext))
      .set("write_extensions", std::move(write_ext))
      .set("forensic", obs::to_json(report.forensic));
  return j;
}

Json scoreboard_to_json(const core::EngineSnapshot& snapshot) {
  Json processes = Json::array();
  for (const core::ProcessReport& report : snapshot.processes) {
    processes.push(report_to_json(report));
  }
  Json j = Json::object();
  j.set("default_threshold", snapshot.default_threshold)
      .set("processes", std::move(processes));
  return j;
}

}  // namespace cryptodrop::daemon
