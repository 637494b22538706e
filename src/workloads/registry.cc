#include "src/workloads/registry.h"

#include <algorithm>
#include <cstring>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/workloads/graphs.h"
#include "src/workloads/kernels.h"

namespace xmt::workloads {

namespace {

int geti(const ConfigMap& p, const char* key, int dflt) {
  return static_cast<int>(p.getInt(key, dflt));
}

std::uint64_t seedOf(const ConfigMap& p) {
  return static_cast<std::uint64_t>(p.getInt("seed", 1));
}

std::vector<std::int32_t> randomInts(Rng& rng, int n, int lo, int hi) {
  std::vector<std::int32_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<std::int32_t>(rng.range(lo, hi));
  return v;
}

std::int32_t floatBits(float f) {
  std::int32_t bits;
  std::memcpy(&bits, &f, sizeof bits);
  return bits;
}

std::vector<std::int32_t> randomFloatBits(Rng& rng, int n) {
  std::vector<std::int32_t> v(static_cast<std::size_t>(n));
  for (auto& x : v)
    x = floatBits(static_cast<float>(rng.uniform() * 2.0 - 1.0));
  return v;
}

// --- source generators (adapting the typed kernel API to ConfigMap) ---

std::string srcVadd(const ConfigMap& p) {
  return vectorAddSource(geti(p, "n", 256));
}
std::string srcCompaction(const ConfigMap& p) {
  return compactionSource(geti(p, "n", 256));
}
std::string srcHistogram(const ConfigMap& p) {
  return histogramSource(geti(p, "n", 256), geti(p, "buckets", 8));
}
std::string srcParallelSum(const ConfigMap& p) {
  return parallelSumSource(geti(p, "n", 256));
}
std::string srcSerialSum(const ConfigMap& p) {
  return serialSumSource(geti(p, "n", 256));
}
std::string srcPrefixSum(const ConfigMap& p) {
  return prefixSumSource(geti(p, "n", 256));
}
std::string srcSerialPrefixSum(const ConfigMap& p) {
  return serialPrefixSumSource(geti(p, "n", 256));
}
std::string srcSaxpy(const ConfigMap& p) {
  return saxpySource(geti(p, "n", 256));
}
std::string srcMatmul(const ConfigMap& p) {
  return matmulSource(geti(p, "n", 8));
}
std::string srcFft(const ConfigMap& p) { return fftSource(geti(p, "n", 64)); }
std::string srcPsCounter(const ConfigMap& p) {
  return psCounterSource(geti(p, "threads", 64), geti(p, "iters", 16));
}
std::string srcPsmCounter(const ConfigMap& p) {
  return psmCounterSource(geti(p, "threads", 64), geti(p, "iters", 16));
}
std::string srcParMem(const ConfigMap& p) {
  return parMemSource(geti(p, "threads", 64), geti(p, "iters", 16));
}
std::string srcParComp(const ConfigMap& p) {
  return parCompSource(geti(p, "threads", 64), geti(p, "iters", 16));
}
std::string srcSerMem(const ConfigMap& p) {
  return serMemSource(geti(p, "iters", 256));
}
std::string srcSerComp(const ConfigMap& p) {
  return serCompSource(geti(p, "iters", 256));
}
std::string srcBfs(const ConfigMap& p) {
  Graph g = randomGraph(geti(p, "n", 128), geti(p, "degree", 4), seedOf(p));
  return bfsParallelSource(g, 0);
}

// --- input preparers ---

void prepArrayA(Simulator& sim, const ConfigMap& p) {
  Rng rng(seedOf(p));
  sim.setGlobalArray("A", randomInts(rng, geti(p, "n", 256), 0, 999));
}

void prepCompaction(Simulator& sim, const ConfigMap& p) {
  // ~1/3 of the entries non-zero, matching the Fig. 2a usage.
  Rng rng(seedOf(p));
  int n = geti(p, "n", 256);
  std::vector<std::int32_t> a(static_cast<std::size_t>(n), 0);
  for (auto& x : a)
    if (rng.chance(1.0 / 3.0))
      x = static_cast<std::int32_t>(rng.range(1, 999));
  sim.setGlobalArray("A", a);
}

void prepHistogram(Simulator& sim, const ConfigMap& p) {
  Rng rng(seedOf(p));
  int buckets = geti(p, "buckets", 8);
  sim.setGlobalArray(
      "A", randomInts(rng, geti(p, "n", 256), 0, buckets - 1));
}

void prepSaxpy(Simulator& sim, const ConfigMap& p) {
  Rng rng(seedOf(p));
  int n = geti(p, "n", 256);
  sim.setGlobalArray("X", randomFloatBits(rng, n));
  sim.setGlobalArray("Y", randomFloatBits(rng, n));
  sim.setGlobal("alpha", floatBits(2.5f));
}

void prepMatmul(Simulator& sim, const ConfigMap& p) {
  Rng rng(seedOf(p));
  int n = geti(p, "n", 8);
  sim.setGlobalArray("A", randomInts(rng, n * n, -9, 9));
  sim.setGlobalArray("B", randomInts(rng, n * n, -9, 9));
}

void prepFft(Simulator& sim, const ConfigMap& p) {
  Rng rng(seedOf(p));
  int n = geti(p, "n", 64);
  sim.setGlobalArray("RE", randomFloatBits(rng, n));
  sim.setGlobalArray("IM", randomFloatBits(rng, n));
  FftTables t = fftTables(n);
  sim.setGlobalArray("WR", t.wr);
  sim.setGlobalArray("WI", t.wi);
  sim.setGlobalArray("BR", t.br);
}

void prepParMem(Simulator& sim, const ConfigMap& p) {
  Rng rng(seedOf(p));
  int size = geti(p, "threads", 64) * geti(p, "iters", 16);
  sim.setGlobalArray("DATA", randomInts(rng, size, 0, 999));
}

void prepSerMem(Simulator& sim, const ConfigMap& p) {
  Rng rng(seedOf(p));
  sim.setGlobalArray("DATA", randomInts(rng, 1 << 14, 0, 999));
}

void prepBfs(Simulator& sim, const ConfigMap& p) {
  Graph g = randomGraph(geti(p, "n", 128), geti(p, "degree", 4), seedOf(p));
  sim.setGlobalArray("rowStart", g.rowStart);
  sim.setGlobalArray("adj", g.adj);
}

}  // namespace

const std::vector<WorkloadEntry>& workloadRegistry() {
  static const std::vector<WorkloadEntry> kRegistry = {
      {"bfs", "parallel BFS over a random graph (CSR)",
       {"n", "degree", "seed"}, srcBfs, prepBfs, {"cur", "next"}},
      {"compaction", "Fig. 2a array compaction",
       {"n", "seed"}, srcCompaction, prepCompaction, {"B"}},
      {"fft", "radix-2 parallel FFT", {"n", "seed"}, srcFft, prepFft, {}},
      {"histogram", "psm histogram",
       {"n", "buckets", "seed"}, srcHistogram, prepHistogram, {}},
      {"matmul", "square matrix multiply (n x n)",
       {"n", "seed"}, srcMatmul, prepMatmul, {}},
      {"par_comp", "Table I parallel compute-intensive",
       {"threads", "iters"}, srcParComp, nullptr, {}},
      {"par_mem", "Table I parallel memory-intensive",
       {"threads", "iters", "seed"}, srcParMem, prepParMem, {}},
      {"parallel_sum", "parallel psm sum",
       {"n", "seed"}, srcParallelSum, prepArrayA, {}},
      {"prefix_sum", "Hillis-Steele parallel prefix sum",
       {"n", "seed"}, srcPrefixSum, prepArrayA, {}},
      {"ps_counter", "hardware-ps shared counter",
       {"threads", "iters"}, srcPsCounter, nullptr, {}},
      {"psm_counter", "psm shared counter",
       {"threads", "iters"}, srcPsmCounter, nullptr, {}},
      {"saxpy", "float SAXPY", {"n", "seed"}, srcSaxpy, prepSaxpy, {}},
      {"ser_comp", "Table I serial compute-intensive",
       {"iters"}, srcSerComp, nullptr, {}},
      {"ser_mem", "Table I serial memory-intensive",
       {"iters", "seed"}, srcSerMem, prepSerMem, {}},
      {"serial_prefix_sum", "serial prefix-sum baseline",
       {"n", "seed"}, srcSerialPrefixSum, prepArrayA, {}},
      {"serial_sum", "serial sum baseline",
       {"n", "seed"}, srcSerialSum, prepArrayA, {}},
      {"vadd", "B[$] = A[$] + 1", {"n", "seed"}, srcVadd, prepArrayA, {}},
  };
  return kRegistry;
}

const WorkloadEntry& findWorkload(const std::string& name) {
  for (const auto& e : workloadRegistry())
    if (e.name == name) return e;
  std::string known;
  for (const auto& e : workloadRegistry()) {
    if (!known.empty()) known += ", ";
    known += e.name;
  }
  throw ConfigError("workload",
                    "unknown workload '" + name + "' (known: " + known + ")");
}

void validateWorkloadParams(const WorkloadEntry& entry,
                            const ConfigMap& params) {
  for (const auto& key : params.keys()) {
    if (std::find(entry.params.begin(), entry.params.end(), key) ==
        entry.params.end())
      throw ConfigError("workload." + key, "not a parameter of workload '" +
                                               entry.name + "'");
  }
  // Sizes the generated kernels cannot run: the fft butterflies index RE/IM
  // through log2(n) radix-2 stages, and a 0x0 matmul has nothing to compute.
  // The generators' default sizes are in range.
  if (!params.has("n")) return;
  std::int64_t n = params.getInt("n", 0);
  if (entry.name == "fft" && (n < 2 || (n & (n - 1)) != 0))
    throw ConfigError("workload.n", "fft needs a power of two >= 2, got " +
                                        std::to_string(n));
  if (entry.name == "matmul" && n < 1)
    throw ConfigError("workload.n",
                      "matmul needs n >= 1, got " + std::to_string(n));
}

std::string WorkloadInstance::key() const {
  std::string out = name;
  auto ks = params.keys();
  if (!ks.empty()) {
    out += '[';
    for (std::size_t i = 0; i < ks.size(); ++i) {
      if (i) out += ' ';
      out += ks[i] + "=" + params.getString(ks[i], "");
    }
    out += ']';
  }
  return out;
}

std::string instanceSource(const WorkloadInstance& w) {
  const WorkloadEntry& e = findWorkload(w.name);
  validateWorkloadParams(e, w.params);
  return e.makeSource(w.params);
}

void instancePrepare(const WorkloadInstance& w, Simulator& sim) {
  const WorkloadEntry& e = findWorkload(w.name);
  if (e.prepare) e.prepare(sim, w.params);
}

}  // namespace xmt::workloads
