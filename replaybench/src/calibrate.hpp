// Host-speed calibration kernel.
//
// The replay benchmark runs on a shared host whose speed drifts by
// 10-20% over seconds. Every timed trial (or daemon cycle) is bracketed
// by a run of this kernel on the same thread; a timing is then scaled by
// reference-kernel-time / local-kernel-time. The kernel copies 256 KiB
// and folds the copy into a byte histogram — memory traffic through the
// L2-sized working set the engine's per-op buffers live in, not an
// ALU-only loop (which does not track the drift).
//
// The kernel lives in its own translation unit with flags fixed by
// replaybench/CMakeLists.txt and uses nothing from the program's src/
// tree, so no program change can move the ruler.
#pragma once

namespace replaybench {

/// Runs the kernel twice and returns the wall time of the second,
/// cache-warm run in nanoseconds.
double calibration_kernel_ns();

}  // namespace replaybench
