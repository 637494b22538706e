// xmtperf: one pass over one benchmark workload of the XMT toolchain.
//
//   xmtperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Generates the workload's inputs from the seed (set-up), runs one timed
// pass on a single thread, checks every output against host references and
// prints one JSON line: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// pass is traced, layer by layer, and an untraced pass over the same
// inputs follows it to measure the tracing overhead; the metrics are then
// the per-layer ones. setup_s is the process's CPU time when the pass
// starts, from the loader on; host_s is the pass's wall time with every
// job at the median time of its slot (medianPassSeconds). Both are scaled
// to the reference host's speed by calibration units (calib.h). Exits 1
// when a job fails or an output check does not hold, 2 on bad usage.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <exception>
#include <map>
#include <set>
#include <string>

#include "calib.h"
#include "src/common/json.h"
#include "trace.h"
#include "workloads.h"

namespace {

using xmtperf::Tally;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "xmtperf: %s\nusage: xmtperf --workload <name> --seed <n> "
               "--seconds <1..600> --trace <0|1>\nworkloads:",
               why.c_str());
  for (const auto& n : xmtperf::workloadNames())
    std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parseNumber(const std::string& flag, const std::string& text,
                          std::uint64_t max) {
  if (text.empty() || text.size() > 18 ||
      text.find_first_not_of("0123456789") != std::string::npos)
    usage(flag + " takes a whole number, got '" + text + "'");
  std::uint64_t v = std::stoull(text);
  if (v > max) usage(flag + " is at most " + std::to_string(max));
  return v;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  std::set<std::string> given;
  for (int i = 1; i < argc; i += 2) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    std::string value = argv[i + 1];
    if (flag == "--workload")
      a.workload = value;
    else if (flag == "--seed")
      a.seed = parseNumber(flag, value, 1'000'000'000'000ull);
    else if (flag == "--seconds")
      a.seconds = static_cast<int>(parseNumber(flag, value, 600));
    else if (flag == "--trace")
      a.trace = parseNumber(flag, value, 1) == 1;
    else
      usage("unknown flag " + flag);
    given.insert(flag);
  }
  for (const char* flag : {"--workload", "--seed", "--seconds", "--trace"})
    if (!given.count(flag)) usage(std::string(flag) + " is required");
  if (a.seconds < 1) usage("--seconds is at least 1");
  return a;
}

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    xmt::Json m = xmt::Json::object();
    m.set("value", xmt::Json::real(value));
    m.set("unit", xmt::Json::str(unit));
    json_.set(name, std::move(m));
  }
  xmt::Json take() { return std::move(json_); }

 private:
  xmt::Json json_ = xmt::Json::object();
};

// CPU time the process has used since it started: the loader, static
// initialisation and everything main() did so far, on this one thread.
double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void addLayerMetrics(Metrics& m, const xmtperf::Tracer& tracer,
                     const Tally& t, double tracedHost, double untracedHost) {
  std::map<std::string, double> self = tracer.selfSeconds();
  std::map<std::string, double> total = tracer.totalSeconds();
  auto s = [&](const char* layer) {
    auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  double compiler = s("compiler.front") + s("compiler.xmtai") +
                    s("compiler.backend") + s("compiler.postpass") +
                    s("compiler.asmverify");
  double cycle = s("cyclemodel.fpga64") + s("cyclemodel.chip1024");
  double testing = s("testing.interpret") + s("testing.rundiff");
  double campaign = s("campaign.point") + s("campaign.serialize");
  auto ns = [](double seconds, std::uint64_t n) {
    return ratio(seconds * 1e9, static_cast<double>(n));
  };

  m.add("workloads.gen_s", s("workloads.gen"), "s");
  m.add("testing.generate_s", s("testing.generate"), "s");
  m.add("testing.interpret_s", s("testing.interpret"), "s");
  m.add("compiler.front_s", s("compiler.front"), "s");
  m.add("compiler.xmtai_s", s("compiler.xmtai"), "s");
  m.add("compiler.backend_s", s("compiler.backend"), "s");
  m.add("compiler.postpass_s", s("compiler.postpass"), "s");
  m.add("compiler.asmverify_s", s("compiler.asmverify"), "s");
  m.add("compiler.calls", static_cast<double>(t.compileCalls), "count");
  m.add("compiler.distinct_programs", static_cast<double>(t.distinctPrograms),
        "count");
  m.add("compiler.distinct_ratio",
        ratio(static_cast<double>(t.distinctPrograms),
              static_cast<double>(t.compileCalls)),
        "ratio");
  m.add("assembler.s", s("assembler"), "s");
  m.add("sim.load_s", s("sim.load"), "s");
  m.add("funcmodel.s", s("funcmodel"), "s");
  m.add("funcmodel.instructions", static_cast<double>(t.funcInstructions),
        "instructions");
  m.add("funcmodel.ns_per_instr", ns(s("funcmodel"), t.funcInstructions),
        "ns");
  m.add("cyclemodel.s", cycle, "s");
  m.add("cyclemodel.instructions", static_cast<double>(t.cycleInstructions),
        "instructions");
  m.add("cyclemodel.sim_cycles", static_cast<double>(t.simCycles), "cycles");
  m.add("cyclemodel.ns_per_instr", ns(cycle, t.cycleInstructions), "ns");
  m.add("cyclemodel.ns_per_sim_cycle", ns(cycle, t.simCycles), "ns");
  m.add("cyclemodel.fpga64.ns_per_instr",
        ns(s("cyclemodel.fpga64"), t.fpga64Instructions), "ns");
  m.add("cyclemodel.chip1024.ns_per_instr",
        ns(s("cyclemodel.chip1024"), t.chip1024Instructions), "ns");
  m.add("memsys.cache_hits", static_cast<double>(t.cacheHits), "count");
  m.add("memsys.cache_misses", static_cast<double>(t.cacheMisses), "count");
  m.add("memsys.icn_packets", static_cast<double>(t.icnPackets), "count");
  m.add("memsys.dram_requests", static_cast<double>(t.dramRequests), "count");
  m.add("memsys.mem_wait_cycles", static_cast<double>(t.memWaitCycles),
        "cycles");
  m.add("campaign.points", static_cast<double>(t.campaignPoints), "count");
  m.add("campaign.point_s",
        total.count("campaign.point") ? total.at("campaign.point") : 0.0, "s");
  m.add("campaign.serialize_s", s("campaign.serialize"), "s");

  // Self-time shares of the traced pass; "other" is pass time outside
  // every span (the benchmark's own loop and output capture).
  double covered = compiler + s("assembler") + s("sim.load") +
                   s("funcmodel") + cycle + testing + campaign;
  m.add("share.compiler", ratio(compiler, tracedHost), "ratio");
  m.add("share.assembler", ratio(s("assembler"), tracedHost), "ratio");
  m.add("share.sim_load", ratio(s("sim.load"), tracedHost), "ratio");
  m.add("share.funcmodel", ratio(s("funcmodel"), tracedHost), "ratio");
  m.add("share.cyclemodel", ratio(cycle, tracedHost), "ratio");
  m.add("share.testing", ratio(testing, tracedHost), "ratio");
  m.add("share.campaign", ratio(campaign, tracedHost), "ratio");
  m.add("share.other", ratio(tracedHost - covered, tracedHost), "ratio");
  m.add("trace.host_s", tracedHost, "s");
  m.add("trace.overhead_s", tracedHost - untracedHost, "s");
}

void merge(Tally& into, const Tally& from) {
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.errors.insert(into.errors.end(), from.errors.begin(),
                     from.errors.end());
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parseArgs(argc, argv);
  auto workload = xmtperf::makeWorkload(args.workload);
  if (!workload) usage("unknown workload '" + args.workload + "'");

  try {
    xmtperf::Tracer tracer(args.trace);
    workload->setup(args.seed, args.seconds, tracer);

    Tally tally;
    const double setupS = processCpuSeconds();
    // Calibration units gauge the host's speed right after set-up and
    // between the pass's jobs. A traced run times layers, not the host, and
    // runs none, so that its passes hold only the work traced.
    tally.calibrate = !args.trace;
    double setupUnit = xmtperf::kReferenceUnitSeconds;
    if (tally.calibrate) {
      double u[3];
      for (double& x : u) x = xmtperf::calibrationUnit();
      std::sort(std::begin(u), std::end(u));
      setupUnit = u[1];
    }
    const double passStart = xmtperf::nowSeconds();
    workload->pass(tracer, tally);
    const double passS = xmtperf::nowSeconds() - passStart;
    // The peak is read before check(), which compiles and simulates again.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    workload->check(tracer, tally);

    Metrics metrics;
    Tally result = tally;
    if (args.trace) {
      // The untraced pass runs second, over the same inputs, for the
      // overhead figure only.
      xmtperf::Tracer off(false);
      Tally plain;
      plain.calibrate = false;
      const double t0 = xmtperf::nowSeconds();
      workload->pass(off, plain);
      const double untracedS = xmtperf::nowSeconds() - t0;
      workload->check(off, plain);
      merge(result, plain);
      addLayerMetrics(metrics, tracer, tally, passS, untracedS);
    } else {
      // Both times in seconds of the reference host at its usual speed;
      // the measured ones go to stderr.
      const double hostS = xmtperf::medianPassSeconds(tally);
      const double scaledSetupS =
          setupS * xmtperf::kReferenceUnitSeconds / setupUnit;
      std::fprintf(stderr,
                   "xmtperf: measured set-up %.6f s, pass %.3f s; "
                   "calibration unit %.5f s after set-up, %zu units in the "
                   "pass; reference unit %.3f s\n",
                   setupS, passS, setupUnit, tally.calibration.size(),
                   xmtperf::kReferenceUnitSeconds);
      metrics.add("host_s", hostS, "s");
      metrics.add("setup_s", scaledSetupS, "s");
      metrics.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
                  "MiB");
      metrics.add("sim_instructions", static_cast<double>(tally.simInstructions),
                  "instructions");
      metrics.add("code_bytes", static_cast<double>(tally.codeBytes), "bytes");
    }

    for (const std::string& e : result.errors)
      std::fprintf(stderr, "xmtperf: check failed: %s\n", e.c_str());
    xmt::Json out = xmt::Json::object();
    bool correct = result.errors.empty();
    out.set("correct", xmt::Json::boolean(correct));
    out.set("attempted", xmt::Json::number(result.attempted));
    out.set("failed", xmt::Json::number(result.failed));
    out.set("metrics", metrics.take());
    std::printf("%s\n", out.dump().c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xmtperf: %s\n", e.what());
    return 1;
  }
}
