// A fixed unit of host work that gauges how fast the shared host runs at
// the moment.
//
// The benchmark's host is a few cores of a machine shared with other
// tenants, and its speed changes with their load: the same fixed pass can
// take 50% longer ten minutes later, in set-up and pass alike. The unit
// below is frozen in the benchmark (it calls nothing in the library), so a
// change to the toolchain cannot move it; only the host can. Job and set-up
// times are scaled by kReferenceUnitSeconds over the time of the units run
// next to them, which reports them in seconds of the reference host at its
// usual speed.
#pragma once

namespace xmtperf {

/// Median thread CPU time of one unit on the reference host (4 vCPU Xeon,
/// 2.1 GHz, KVM guest), when other tenants leave it at its usual speed.
constexpr double kReferenceUnitSeconds = 0.018;

/// Runs one unit (a register-machine interpreter over 256 KiB, then an
/// event queue feeding a table) and returns its thread CPU seconds.
double calibrationUnit();

}  // namespace xmtperf
