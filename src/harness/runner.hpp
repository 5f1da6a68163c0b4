// Parallel experiment runner — the thread-pool substrate under every
// sweep (Table I, Figures 3–6, ROC/ablation studies).
//
// The paper's methodology is embarrassingly parallel: each trial (one
// ransomware sample or benign app × one config) runs against a pristine
// clone of the victim volume, reverted between samples. Trials share
// nothing mutable — FileSystem::clone() hands each one its own tree and
// the file *content* is shared copy-on-write (immutable bytes, atomic
// refcounts) — so N trials saturate N cores without locks beyond each
// engine's own.
//
// Determinism contract: results are index-addressed (trial i writes
// results[i]), every trial seeds its own Rng from the spec, and nothing
// reads wall-clock — so a parallel sweep is bit-identical to the serial
// one, at any job count. runner_test.cpp asserts this.
#pragma once

#include <cstddef>
#include <functional>

#include "harness/experiment.hpp"

namespace cryptodrop::harness {

/// Resolves a requested job count: 0 → std::thread::hardware_concurrency()
/// (min 1). Never returns 0.
std::size_t effective_jobs(std::size_t requested);

/// Runs body(i) for i in [0, count) on `options.jobs` workers and calls
/// `options.progress` after each; the other options are for the bodies.
/// With one job (or one item) the bodies run inline, in order, on the
/// calling thread — the exact serial path. The first exception thrown by
/// any body is rethrown on the caller after all workers join.
void parallel_for(std::size_t count, const TrialOptions& options,
                  const std::function<void(std::size_t)>& body);

}  // namespace cryptodrop::harness
