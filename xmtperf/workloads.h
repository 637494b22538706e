// The benchmark's four workloads and what a pass over one of them counts.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace xmtperf {

/// What one pass attempted, what failed, the exact counts it yields, and
/// the layer counts the traced run reports.
struct Tally {
  std::uint64_t attempted = 0;  // jobs: simulations, campaign points or
                                // programs through the three-way oracle
  std::uint64_t failed = 0;     // jobs that threw or did not halt
  std::vector<std::string> errors;  // output checks that did not hold

  // Thread CPU seconds of the calibration units (calib.h) the pass ran
  // between its jobs, in order. A traced run's passes run none.
  bool calibrate = true;
  std::vector<double> calibration;

  // Wall time of every job, by slot: a slot holds the same job in each
  // round of the pass (a kernel; a kernel on one machine in one mode; one
  // xmtsmith program, which runs once).
  struct JobTime {
    double seconds;
    std::size_t unitsBefore;  // calibration units run before the job
  };
  std::map<std::string, std::vector<JobTime>> jobSeconds;

  std::uint64_t simInstructions = 0;  // committed, over every run
  std::uint64_t codeBytes = 0;        // text bytes of the distinct programs

  std::uint64_t compileCalls = 0;
  std::uint64_t distinctPrograms = 0;
  std::uint64_t campaignPoints = 0;
  std::uint64_t funcInstructions = 0;
  std::uint64_t cycleInstructions = 0;
  std::uint64_t fpga64Instructions = 0;
  std::uint64_t chip1024Instructions = 0;
  std::uint64_t simCycles = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t icnPackets = 0;
  std::uint64_t dramRequests = 0;
  std::uint64_t memWaitCycles = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates every job's input from `seed`; sized so that a pass lasts
  /// about `seconds` on a quiet 4-vCPU Xeon host.
  virtual void setup(std::uint64_t seed, int seconds, Tracer& tracer) = 0;
  /// The timed pass. A traced pass calls the layers' public functions one
  /// by one inside spans; an untraced one calls the entry points users call.
  virtual void pass(Tracer& tracer, Tally& tally) = 0;
  /// Checks the last pass's outputs and fills in the exact counts that
  /// are not visible from inside the pass. Never timed.
  virtual void check(const Tracer& tracer, Tally& tally) = 0;
};

/// host_s: the pass's wall time with every job taken at the median time of
/// its slot (the sum over slots of jobs x median). Each job's time is first
/// scaled by kReferenceUnitSeconds over the mean of the calibration units
/// run just before and just after it, which takes out the host's speed at
/// that moment; the medians then leave out a job that a burst of load
/// slowed down more than its neighbouring units. Unscaled when the pass ran
/// no calibration unit.
double medianPassSeconds(const Tally& tally);

/// Null for an unknown workload name.
std::unique_ptr<Workload> makeWorkload(const std::string& name);

/// Names makeWorkload() accepts.
const std::vector<std::string>& workloadNames();

}  // namespace xmtperf
