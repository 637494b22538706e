// Named-workload registry: every built-in kernel reachable by name with
// parameterized, deterministically generated inputs.
//
// The campaign engine sweeps over workloads the way it sweeps over machine
// parameters, so kernels must be instantiable from flat key=value data
// ("workload = histogram", "workload.n = 4096", "workload.seed = 7")
// rather than by calling each generator function by hand. A registry entry
// bundles the source generator with an input preparer that fills the
// program's globals from an Rng seeded by the `seed` parameter — the same
// (name, params) pair always produces the same program and the same input,
// which is what makes campaign results reproducible and resumable.
#pragma once

#include <string>
#include <vector>

#include "src/common/config.h"

namespace xmt {
class Simulator;
}

namespace xmt::workloads {

/// A workload selected by name plus its parameter assignment.
struct WorkloadInstance {
  std::string name;
  ConfigMap params;

  /// Canonical "name[k=v k=v]" string (sorted params) for point keys.
  std::string key() const;
};

struct WorkloadEntry {
  std::string name;
  std::string description;
  /// Parameter names this workload accepts (all integers; `seed` is
  /// accepted by every workload that takes input data).
  std::vector<std::string> params;
  std::string (*makeSource)(const ConfigMap& params);
  /// Fills input globals on a freshly built simulator. May be null when
  /// the kernel needs no input.
  void (*prepare)(Simulator& sim, const ConfigMap& params);
  /// Globals whose final content is correct as a *set* but placed at
  /// thread-order-dependent positions (e.g. compaction's ps-allocated B,
  /// bfs frontier queues). Simulator::memoryDigest() comparisons across
  /// simulation modes must mask these; everything else is demanded
  /// bit-identical between functional and cycle-accurate runs.
  std::vector<std::string> digestExclude;
};

/// All registered workloads, sorted by name.
const std::vector<WorkloadEntry>& workloadRegistry();

/// Lookup by name; throws ConfigError (field = "workload") listing the
/// known names when `name` is not registered.
const WorkloadEntry& findWorkload(const std::string& name);

/// Validates that every param key is accepted by the workload and that the
/// size parameters are in the kernel's domain (fft n a power of two >= 2,
/// matmul n >= 1); throws ConfigError naming the bad key otherwise.
void validateWorkloadParams(const WorkloadEntry& entry, const ConfigMap& params);

/// Builds the XMTC source for an instance (validates params first).
std::string instanceSource(const WorkloadInstance& w);

/// Prepares simulator input for an instance.
void instancePrepare(const WorkloadInstance& w, Simulator& sim);

}  // namespace xmt::workloads
