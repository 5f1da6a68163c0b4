#include "core/config.hpp"

namespace cryptodrop::core {

namespace {

Status invalid(std::string message) {
  return Status(Errc::invalid_argument, std::move(message));
}

}  // namespace

std::vector<EnsembleMember> EntropyConfig::active_members() const {
  if (!ensemble.members.empty()) return ensemble.members;
  return {EnsembleMember{backend, 1.0}};
}

Status ScoringConfig::validate() const {
  if (protected_root.empty()) {
    return invalid("protected_root must not be empty");
  }
  for (const std::string& root : additional_roots) {
    if (root.empty()) {
      return invalid("additional_roots entries must not be empty");
    }
  }

  if (entropy.points_write < 0) return invalid("entropy.points_write < 0");
  if (points_type_change < 0) return invalid("points_type_change < 0");
  if (points_similarity_drop < 0) return invalid("points_similarity_drop < 0");
  if (points_deletion < 0) return invalid("points_deletion < 0");
  if (points_funneling < 0) return invalid("points_funneling < 0");
  if (points_rate < 0) return invalid("points_rate < 0");
  if (union_bonus < 0) return invalid("union_bonus < 0");

  if (score_threshold < 1) {
    return invalid("score_threshold must be >= 1 (every process starts at 0)");
  }
  if (enable_union) {
    if (union_threshold < 1) {
      return invalid("union_threshold must be >= 1");
    }
    if (union_threshold > score_threshold) {
      return invalid(
          "union_threshold exceeds score_threshold; union indication is "
          "documented to *lower* a process's detection threshold");
    }
  }

  if (entropy.delta_threshold < 0.0) {
    return invalid("entropy.delta_threshold < 0");
  }
  if (entropy.full_points_bytes == 0) {
    return invalid("entropy.full_points_bytes must be >= 1");
  }
  if (entropy.full_points_delta < 0.0) {
    return invalid("entropy.full_points_delta < 0");
  }
  if (entropy.min_score_bytes > entropy.full_points_bytes) {
    return invalid(
        "entropy.min_score_bytes exceeds entropy.full_points_bytes; writes "
        "large enough for full points would be exempt from scoring");
  }
  if (entropy.daa_window_bytes == 0) {
    return invalid("entropy.daa_window_bytes must be >= 1");
  }
  if (!entropy.ensemble.members.empty()) {
    if (entropy.ensemble.min_vote_weight <= 0.0 ||
        entropy.ensemble.min_vote_weight > 1.0) {
      return invalid("ensemble.min_vote_weight must be in (0, 1]");
    }
    bool seen[entropy::kBackendCount] = {};
    for (const EnsembleMember& member : entropy.ensemble.members) {
      if (member.weight <= 0.0) {
        return invalid("ensemble member weights must be > 0");
      }
      const auto idx = static_cast<std::size_t>(member.backend);
      if (idx >= entropy::kBackendCount) {
        return invalid("ensemble member names an unknown backend");
      }
      if (seen[idx]) {
        return invalid(
            "ensemble lists backend `" +
            std::string(entropy::backend_name(member.backend)) +
            "` twice; each backend keeps one pair of running means and "
            "may vote at most once per operation");
      }
      seen[idx] = true;
    }
  }
  if (similarity_drop_max < 0 || similarity_drop_max > 100) {
    return invalid("similarity_drop_max must be within the 0..100 score range");
  }
  if (dynamic_unavailable_boost < 0.0) {
    return invalid("dynamic_unavailable_boost < 0");
  }

  if (funnel_min_read_types == 0) {
    return invalid("funnel_min_read_types must be >= 1");
  }
  if (enable_rate_indicator) {
    if (rate_window_micros == 0) {
      return invalid("rate_window_micros must be a non-zero window");
    }
    if (rate_min_files == 0) {
      return invalid("rate_min_files must be >= 1");
    }
  }

  return Status::ok();
}

}  // namespace cryptodrop::core
