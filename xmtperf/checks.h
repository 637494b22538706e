// Output checks for registry kernels, made apart from the simulator.
//
// Every kernel the benchmark runs is checked against a host computation:
// the registry's own host references (hostMatmul, hostDft, hostBfs,
// hostHistogram, hostCompaction) where they exist, and sums, prefix sums
// and closed-form loops written here otherwise. Inputs are re-created by
// the registry preparer on a fresh, never-run simulator, so a fault in the
// run cannot leak into the reference.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/assembler/program.h"
#include "src/sim/simulator.h"
#include "src/workloads/registry.h"

namespace xmtperf {

using Outputs = std::map<std::string, std::vector<std::int32_t>>;

/// Reads the globals `w`'s kernel writes its results to from a simulator
/// after its run.
Outputs captureOutputs(const xmt::workloads::WorkloadInstance& w,
                       const xmt::Simulator& sim);

/// Compares the outputs of every run of `w` against its host reference;
/// float kernels (fft, saxpy) within 1e-4 per unit of output magnitude.
/// `program` is the compiled kernel; it is only used to re-create the
/// inputs. Returns an empty string when every output is correct, else the
/// first difference.
std::string checkKernel(const xmt::workloads::WorkloadInstance& w,
                        const xmt::Program& program,
                        const std::vector<const Outputs*>& runs);

}  // namespace xmtperf
