// Wire layer for the cryptodropd control API (docs/DAEMON.md).
//
// The control protocol is line-delimited JSON: one request object per
// line in, one response object per line out, both carried by
// common::Json (parse_json reads a request line). This header adds the
// response-side serializers shared between the daemon and the parity
// harness: to_json(ProcessReport) is used by BOTH the daemon's
// `verdicts` response and the in-process golden run, so "bit-identical
// scoreboards" is a string comparison of the same serializer's output.
#pragma once

#include "common/json.hpp"
#include "core/engine.hpp"

namespace cryptodrop::daemon {

/// The daemon's name for a parsed request: the common JSON value type.
using JsonValue = Json;
/// The common reader (depth-capped at kMaxJsonDepth), under the name
/// daemon clients already use.
using cryptodrop::parse_json;

/// Serializes one process report — score, verdict, indicator counts,
/// entropy means, extension sets and the forensic score history — the
/// "per-tenant scoreboard" unit of the daemon parity gate.
Json report_to_json(const core::ProcessReport& report);

/// Serializes the scoreboard half of an engine snapshot: the report
/// list plus the default threshold. Metrics are excluded:
/// they carry wall-clock measurements outside the determinism contract.
Json scoreboard_to_json(const core::EngineSnapshot& snapshot);

}  // namespace cryptodrop::daemon
