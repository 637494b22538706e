#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "src/workloads/graphs.h"
#include "src/workloads/kernels.h"

namespace xmtperf {

namespace {

using xmt::workloads::WorkloadInstance;
using Ints = std::vector<std::int32_t>;

// Largest absolute error accepted between a float kernel and its
// double-precision host reference, per unit of reference magnitude.
constexpr double kFloatTolerance = 1e-4;

// Defaults below are the registry's own (src/workloads/registry.cc), used
// when an instance leaves a parameter unset.
int param(const WorkloadInstance& w, const char* key, int dflt) {
  return static_cast<int>(w.params.getInt(key, dflt));
}

// The input seed, whole: the registry draws its inputs from all 64 bits.
std::uint64_t seedParam(const WorkloadInstance& w) {
  return static_cast<std::uint64_t>(w.params.getInt("seed", 1));
}

std::int32_t wrap(std::uint32_t v) { return static_cast<std::int32_t>(v); }

float bitsToFloat(std::int32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

// One output's reference value and how a run's value is compared with it.
struct Expected {
  enum class Kind { kExact, kSet, kFloat } kind = Kind::kExact;
  Ints ints;                  // kExact, kSet
  std::vector<double> reals;  // kFloat
  double scale = 1.0;         // kFloat: magnitude the tolerance scales with
};

Expected exact(Ints v) { return {Expected::Kind::kExact, std::move(v), {}, 1.0}; }

std::string compare(const std::string& name, const Expected& e,
                    const Ints& got) {
  std::size_t n = e.kind == Expected::Kind::kFloat ? e.reals.size()
                                                   : e.ints.size();
  if (got.size() < n)
    return name + ": " + std::to_string(got.size()) + " values, expected " +
           std::to_string(n);
  if (e.kind == Expected::Kind::kFloat) {
    double tol = kFloatTolerance * e.scale;
    for (std::size_t i = 0; i < n; ++i) {
      double g = bitsToFloat(got[i]);
      if (!(std::fabs(g - e.reals[i]) <= tol))
        return name + "[" + std::to_string(i) + "] = " + std::to_string(g) +
               ", reference " + std::to_string(e.reals[i]) + " (tolerance " +
               std::to_string(tol) + ")";
    }
    return "";
  }
  Ints g(got.begin(), got.begin() + static_cast<std::ptrdiff_t>(n));
  if (e.kind == Expected::Kind::kSet) std::sort(g.begin(), g.end());
  for (std::size_t i = 0; i < n; ++i)
    if (g[i] != e.ints[i])
      return name + (e.kind == Expected::Kind::kSet ? " (sorted)" : "") + "[" +
             std::to_string(i) + "] = " + std::to_string(g[i]) +
             ", reference " + std::to_string(e.ints[i]);
  return "";
}

Ints prefixSums(const Ints& a) {
  Ints s(a.size());
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<std::uint32_t>(a[i]);
    s[i] = wrap(acc);
  }
  return s;
}

std::int32_t total(const Ints& a) {
  std::uint32_t acc = 0;
  for (std::int32_t v : a) acc += static_cast<std::uint32_t>(v);
  return wrap(acc);
}

// The register-only integer mix of the Table I compute kernels.
std::int32_t computeMix(std::int32_t a, int iters) {
  std::int32_t b = 12345;
  for (int i = 0; i < iters; ++i) {
    a = wrap(static_cast<std::uint32_t>(a) * 5u + static_cast<std::uint32_t>(b));
    b = b ^ (a >> 3);
    a = wrap(static_cast<std::uint32_t>(a) + (static_cast<std::uint32_t>(b) << 1));
  }
  return a;
}

using References = std::map<std::string, Expected>;
using Reference =
    std::function<References(const WorkloadInstance&, const xmt::Simulator& in)>;

struct KernelInfo {
  std::vector<std::string> outputs;
  Reference reference;
};

const std::map<std::string, KernelInfo>& kernels() {
  using xmt::Simulator;
  static const std::map<std::string, KernelInfo> kTable = {
      {"bfs",
       {{"dist"},
        [](const WorkloadInstance& w, const Simulator&) {
          auto g = xmt::workloads::randomGraph(param(w, "n", 128),
                                               param(w, "degree", 4),
                                               seedParam(w));
          return References{{"dist", exact(xmt::workloads::hostBfs(g, 0))}};
        }}},
      {"compaction",
       {{"B", "count"},
        [](const WorkloadInstance&, const Simulator& in) {
          // B is correct as a set: ps hands out slots in arrival order.
          Ints b = xmt::workloads::hostCompaction(in.getGlobalArray("A"));
          std::sort(b.begin(), b.end());
          Ints count = {static_cast<std::int32_t>(b.size())};
          return References{{"count", exact(count)},
                            {"B", {Expected::Kind::kSet, b, {}, 1.0}}};
        }}},
      {"fft",
       {{"RE", "IM"},
        [](const WorkloadInstance&, const Simulator& in) {
          std::vector<float> re, im;
          for (std::int32_t v : in.getGlobalArray("RE"))
            re.push_back(bitsToFloat(v));
          for (std::int32_t v : in.getGlobalArray("IM"))
            im.push_back(bitsToFloat(v));
          std::vector<double> outRe, outIm;
          xmt::workloads::hostDft(re, im, outRe, outIm);
          // Inputs are uniform in [-1, 1); an output bin's magnitude grows
          // with sqrt(n), and so does the float32 rounding error.
          double scale = std::sqrt(static_cast<double>(re.size()));
          return References{
              {"RE", {Expected::Kind::kFloat, {}, std::move(outRe), scale}},
              {"IM", {Expected::Kind::kFloat, {}, std::move(outIm), scale}}};
        }}},
      {"histogram",
       {{"H"},
        [](const WorkloadInstance& w, const Simulator& in) {
          return References{{"H", exact(xmt::workloads::hostHistogram(
                                      in.getGlobalArray("A"),
                                      param(w, "buckets", 8)))}};
        }}},
      {"matmul",
       {{"C"},
        [](const WorkloadInstance& w, const Simulator& in) {
          return References{{"C", exact(xmt::workloads::hostMatmul(
                                      in.getGlobalArray("A"),
                                      in.getGlobalArray("B"),
                                      param(w, "n", 8)))}};
        }}},
      {"par_comp",
       {{"OUT"},
        [](const WorkloadInstance& w, const Simulator&) {
          Ints out(static_cast<std::size_t>(param(w, "threads", 64)));
          for (std::size_t t = 0; t < out.size(); ++t)
            out[t] = computeMix(static_cast<std::int32_t>(t) + 1,
                                param(w, "iters", 16));
          return References{{"OUT", exact(out)}};
        }}},
      {"par_mem",
       {{"OUT"},
        [](const WorkloadInstance& w, const Simulator& in) {
          // Thread t sums DATA[i * threads + t] over its iterations.
          std::size_t threads =
              static_cast<std::size_t>(param(w, "threads", 64));
          Ints data = in.getGlobalArray("DATA");
          std::vector<std::uint32_t> acc(threads, 0);
          for (std::size_t i = 0; i < data.size(); ++i)
            acc[i % threads] += static_cast<std::uint32_t>(data[i]);
          Ints out(threads);
          for (std::size_t t = 0; t < threads; ++t) out[t] = wrap(acc[t]);
          return References{{"OUT", exact(out)}};
        }}},
      {"parallel_sum",
       {{"total"},
        [](const WorkloadInstance&, const Simulator& in) {
          return References{{"total", exact({total(in.getGlobalArray("A"))})}};
        }}},
      {"prefix_sum",
       {{"S"},
        [](const WorkloadInstance&, const Simulator& in) {
          return References{{"S", exact(prefixSums(in.getGlobalArray("A")))}};
        }}},
      {"ps_counter",
       {{"total"},
        [](const WorkloadInstance& w, const Simulator&) {
          return References{
              {"total",
               exact({param(w, "threads", 64) * param(w, "iters", 16)})}};
        }}},
      {"psm_counter",
       {{"total"},
        [](const WorkloadInstance& w, const Simulator&) {
          return References{
              {"total",
               exact({param(w, "threads", 64) * param(w, "iters", 16)})}};
        }}},
      {"saxpy",
       {{"Y"},
        [](const WorkloadInstance&, const Simulator& in) {
          Ints x = in.getGlobalArray("X"), y = in.getGlobalArray("Y");
          double alpha = bitsToFloat(in.getGlobal("alpha"));
          std::vector<double> out(x.size());
          for (std::size_t i = 0; i < x.size(); ++i)
            out[i] = alpha * bitsToFloat(x[i]) + bitsToFloat(y[i]);
          return References{
              {"Y", {Expected::Kind::kFloat, {}, std::move(out), 1.0}}};
        }}},
      {"ser_comp",
       {{"OUT"},
        [](const WorkloadInstance& w, const Simulator&) {
          return References{
              {"OUT", exact({computeMix(1, param(w, "iters", 256))})}};
        }}},
      {"ser_mem",
       {{"OUT"},
        [](const WorkloadInstance& w, const Simulator& in) {
          // The strided walk of serMemSource over a power-of-two DATA.
          Ints data = in.getGlobalArray("DATA");
          std::uint32_t acc = 0;
          std::size_t idx = 7;
          for (int i = 0; i < param(w, "iters", 256); ++i) {
            acc += static_cast<std::uint32_t>(data[idx]);
            idx = (idx + 1027) & (data.size() - 1);
          }
          return References{{"OUT", exact({wrap(acc)})}};
        }}},
      {"serial_prefix_sum",
       {{"S"},
        [](const WorkloadInstance&, const Simulator& in) {
          return References{{"S", exact(prefixSums(in.getGlobalArray("A")))}};
        }}},
      {"serial_sum",
       {{"total"},
        [](const WorkloadInstance&, const Simulator& in) {
          return References{{"total", exact({total(in.getGlobalArray("A"))})}};
        }}},
      {"vadd",
       {{"B"},
        [](const WorkloadInstance&, const Simulator& in) {
          Ints b = in.getGlobalArray("A");
          for (auto& v : b) v = wrap(static_cast<std::uint32_t>(v) + 1u);
          return References{{"B", exact(b)}};
        }}},
  };
  return kTable;
}

}  // namespace

Outputs captureOutputs(const WorkloadInstance& w, const xmt::Simulator& sim) {
  Outputs out;
  for (const std::string& name : kernels().at(w.name).outputs)
    out[name] = sim.getGlobalArray(name);
  return out;
}

std::string checkKernel(const WorkloadInstance& w, const xmt::Program& program,
                        const std::vector<const Outputs*>& runs) {
  xmt::Simulator in(program, xmt::XmtConfig::fpga64(),
                    xmt::SimMode::kFunctional);
  xmt::workloads::instancePrepare(w, in);
  References refs = kernels().at(w.name).reference(w, in);
  for (const Outputs* got : runs)
    for (const auto& [name, expect] : refs) {
      std::string err = compare(name, expect, got->at(name));
      if (!err.empty()) return w.key() + ": " + err;
    }
  return "";
}

}  // namespace xmtperf
