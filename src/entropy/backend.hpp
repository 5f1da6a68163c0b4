// Pluggable entropy-indicator backends (DESIGN.md §14).
//
// The paper scores one statistic — Shannon entropy (§III-C) — but plain
// entropy is the weakest primary indicator against compressed formats
// and partial-encryption strains: a zip member and an AES buffer both
// sit near 8 bits/byte. "Comparison of Entropy Calculation Methods for
// Ransomware Encrypted File Identification" (arXiv 2210.13376) shows
// chi-square and serial-byte-correlation separate the two far better,
// and "Differential Area Analysis for Ransomware" (arXiv 2303.17351)
// adds a head-vs-tail windowed test. This header turns the indicator
// into an interface so the engine can run any of them — or an ensemble
// — behind the same weighted-mean delta machinery.
//
// Every backend maps its raw statistic onto a shared [0, 8] "suspicion
// bits" scale (8 = indistinguishable from uniform ciphertext, 0 =
// maximally structured), so the paper's weighting formula
// w = 0.125 * round(score) * bytes and the delta threshold keep their
// meaning regardless of which statistic is measuring.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"

namespace cryptodrop::entropy {

/// The statistic a backend computes. Order is the schema order used by
/// metric labels and the CLI; docs_check pins obs::known_placeholder_labels
/// ("<entropy_backend>") to this enum.
enum class BackendKind : std::uint8_t {
  shannon,             ///< Paper §III-C Shannon entropy (the default).
  chi_square,          ///< Pearson chi-square against the uniform byte law.
  serial_correlation,  ///< Circular lag-1 byte correlation ("ent" SCC).
  daa,                 ///< Differential area analysis: head vs. tail windows.
};

/// Number of BackendKind values (for fixed-size per-backend tables).
inline constexpr std::size_t kBackendCount = 4;

/// Stable lowercase label for a backend ("shannon", "chi_square", ...)
/// — used in metric names, CLI flags, reports and bench tables.
std::string_view backend_name(BackendKind kind);

/// Parses a backend label back to its kind; std::nullopt when unknown.
std::optional<BackendKind> backend_from_name(std::string_view name);

/// Every backend kind in schema order (the enum order).
const std::vector<BackendKind>& all_backend_kinds();

/// Tunables a backend may consume at construction. Plain value type.
struct BackendOptions {
  /// DAA head/tail window size in bytes (arXiv 2303.17351 samples fixed
  /// windows at both ends of the buffer). Other backends ignore it.
  std::size_t daa_window_bytes = 2048;
};

/// Incremental form of a backend: folds streamed chunks and reports the
/// same score the one-shot Backend::score() would give for the
/// concatenation. Mirrors the Histogram class the Shannon path always
/// had. Not thread-safe; one accumulator per stream.
class Accumulator {
 public:
  virtual ~Accumulator() = default;
  /// Folds one chunk of the stream.
  virtual void add(ByteView data) = 0;
  /// Score of everything folded so far, on the shared [0, 8] scale.
  [[nodiscard]] virtual double score() const = 0;
  /// Total bytes folded so far.
  [[nodiscard]] virtual std::uint64_t total() const = 0;
};

/// One entropy statistic. Stateless and immutable after construction:
/// score() is const and thread-safe, so one instance may serve every
/// process an engine scores.
class Backend {
 public:
  virtual ~Backend() = default;
  /// Which statistic this is.
  [[nodiscard]] virtual BackendKind kind() const = 0;
  /// One-shot score of a whole buffer on the shared [0, 8] scale.
  /// Empty input scores 0 for every backend.
  [[nodiscard]] virtual double score(ByteView data) const = 0;
  /// A fresh streaming accumulator for this statistic.
  [[nodiscard]] virtual std::unique_ptr<Accumulator> make_accumulator() const = 0;
  /// Convenience: backend_name(kind()).
  [[nodiscard]] std::string_view name() const { return backend_name(kind()); }
};

/// Constructs a backend. The shannon backend reproduces entropy::shannon
/// bit-for-bit (the engine's default path must stay golden-identical).
std::unique_ptr<Backend> make_backend(BackendKind kind,
                                      const BackendOptions& options = {});

}  // namespace cryptodrop::entropy
