#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <set>
#include <utility>

#include "calib.h"
#include "checks.h"
#include "src/assembler/assembler.h"
#include "src/campaign/runner.h"
#include "src/campaign/spec.h"
#include "src/common/error.h"
#include "src/common/json.h"
#include "src/sim/statsjson.h"
#include "src/testing/diffrun.h"
#include "src/testing/xmtsmith.h"
#include "src/workloads/registry.h"

namespace xmtperf {

namespace {

using xmt::CompilerOptions;
using xmt::Program;
using xmt::RunResult;
using xmt::SimMode;
using xmt::Simulator;
using xmt::XmtConfig;
using xmt::workloads::WorkloadInstance;

// Jobs per pass scale with --seconds at these rates, measured on a quiet
// 4-vCPU Xeon host (RelWithDebInfo).
int scaled(int seconds, double perSecond) {
  return std::max(1, static_cast<int>(std::lround(seconds * perSecond)));
}

// Runs one calibration unit between jobs, unless the tally says not to.
void calibrate(Tally& tally) {
  if (tally.calibrate) tally.calibration.push_back(calibrationUnit());
}

// Adds the wall time of one job, from construction to destruction, to its
// slot in the tally.
class JobTimer {
 public:
  JobTimer(Tally& tally, std::string slot)
      : tally_(tally), slot_(std::move(slot)), start_(nowSeconds()) {}
  ~JobTimer() {
    tally_.jobSeconds[slot_].push_back(
        {nowSeconds() - start_, tally_.calibration.size()});
  }
  JobTimer(const JobTimer&) = delete;
  JobTimer& operator=(const JobTimer&) = delete;

 private:
  Tally& tally_;
  std::string slot_;
  double start_;
};

// Compiles through compileAsm(). In a traced pass it also counts the
// compiles and keeps each distinct (source, options) pair's assembly, to be
// checked against compileXmtc() once the pass is over.
class Compiles {
 public:
  Program build(const std::string& source, const CompilerOptions& opts,
                Tracer& tracer, Tally& tally) {
    std::string asmText = compileAsm(source, opts, tracer);
    Program program;
    {
      auto s = tracer.span("assembler");
      program = xmt::assemble(asmText);
    }
    if (tracer.enabled()) {
      ++tally.compileCalls;
      std::uint64_t k = key(source, opts);
      if (!traced_.count(k))
        traced_.emplace(k, Entry{source, opts, std::move(asmText)});
      tally.distinctPrograms = traced_.size();
    }
    return program;
  }

  /// The traced assembly for (source, opts), or null.
  const std::string* tracedAsm(const std::string& source,
                               const CompilerOptions& opts) const {
    auto it = traced_.find(key(source, opts));
    return it == traced_.end() ? nullptr : &it->second.asmText;
  }

  /// Reports every distinct program whose traced assembly differs from
  /// what compileXmtc() produces: its pass times would describe a
  /// compilation the library no longer performs.
  void verify(Tally& tally) const {
    for (const auto& [k, e] : traced_)
      if (xmt::compileXmtc(e.source, e.opts).asmText != e.asmText)
        tally.errors.push_back(
            "traced compiler passes disagree with compileXmtc at -O" +
            std::to_string(e.opts.optLevel) +
            "; the compiler.* pass times are stale");
  }

  void clear() { traced_.clear(); }

 private:
  struct Entry {
    std::string source;
    CompilerOptions opts;
    std::string asmText;
  };
  // Every options field the workloads vary is the optimization level.
  static std::uint64_t key(const std::string& source,
                           const CompilerOptions& opts) {
    return xmt::campaign::fnv1a64("-O" + std::to_string(opts.optLevel) +
                                  "\n" + source);
  }
  std::map<std::uint64_t, Entry> traced_;
};

// Loads a simulator inside a sim.load span.
std::unique_ptr<Simulator> load(Program program, const XmtConfig& cfg,
                                SimMode mode, const WorkloadInstance* inst,
                                Tracer& tracer) {
  auto s = tracer.span("sim.load");
  auto sim = std::make_unique<Simulator>(std::move(program), cfg, mode);
  if (inst != nullptr) xmt::workloads::instancePrepare(*inst, *sim);
  return sim;
}

// Runs a loaded simulator to halt inside its model's span and adds the
// run's counts to the tally.
RunResult simulate(Simulator& sim, bool chip1024, Tracer& tracer,
                   Tally& tally) {
  RunResult r;
  if (sim.mode() == SimMode::kFunctional) {
    {
      auto s = tracer.span("funcmodel");
      r = sim.run();
    }
    tally.funcInstructions += r.instructions;
    return r;
  }
  {
    auto s = tracer.span(chip1024 ? "cyclemodel.chip1024"
                                  : "cyclemodel.fpga64");
    r = sim.run();
  }
  tally.cycleInstructions += r.instructions;
  (chip1024 ? tally.chip1024Instructions : tally.fpga64Instructions) +=
      r.instructions;
  tally.simCycles += r.cycles;
  const xmt::Stats& st = sim.stats();
  tally.cacheHits += st.cacheHits;
  tally.cacheMisses += st.cacheMisses;
  tally.icnPackets += st.icnPackets;
  tally.dramRequests += st.dramRequests;
  tally.memWaitCycles += st.memWaitCycles;
  return r;
}

// ---------------------------------------------------------------------------
// cycle_long / functional_long: a few registry kernels at large inputs.
// ---------------------------------------------------------------------------

struct KernelSize {
  const char* name;
  std::vector<std::pair<const char*, std::int64_t>> params;
};

// fft sizes stay powers of two: the registry accepts other n, but the
// kernel then indexes RE/IM out of bounds.
const std::vector<KernelSize> kCycleKernels = {
    {"matmul", {{"n", 40}}},
    {"fft", {{"n", 2048}}},
    {"bfs", {{"n", 8192}, {"degree", 4}}},
    {"par_mem", {{"threads", 1024}, {"iters", 128}}},
    {"histogram", {{"n", 65536}, {"buckets", 64}}},
    {"prefix_sum", {{"n", 4096}}},
};

// Every input array stays within 1 MiB, inside a core's L2: a simulated
// memory that spills to DRAM makes a pass slower and noisier whenever
// another tenant of the host is streaming memory.
const std::vector<KernelSize> kFunctionalKernels = {
    {"matmul", {{"n", 128}}},
    {"fft", {{"n", 2048}}},
    {"bfs", {{"n", 16384}, {"degree", 4}}},
    {"par_mem", {{"threads", 1024}, {"iters", 256}}},
    {"histogram", {{"n", 1 << 18}, {"buckets", 64}}},
    {"prefix_sum", {{"n", 65536}}},
};

class KernelWorkload : public Workload {
 public:
  explicit KernelWorkload(bool cycle) : cycle_(cycle) {
    // Each kernel is compiled once per round and run on every machine
    // listed; the functional run of the cycle workload is the reference
    // the cycle runs' memory digests must equal.
    if (cycle_)
      runs_ = {{"fpga64", SimMode::kCycleAccurate},
               {"chip1024", SimMode::kCycleAccurate},
               {"fpga64", SimMode::kFunctional}};
    else
      runs_ = {{"fpga64", SimMode::kFunctional}};
  }

  void setup(std::uint64_t seed, int seconds, Tracer& tracer) override {
    int rounds = scaled(seconds, cycle_ ? 0.25 : 0.58);
    auto s = tracer.span("workloads.gen");
    for (int r = 0; r < rounds; ++r)
      for (const KernelSize& k : cycle_ ? kCycleKernels : kFunctionalKernels) {
        Job job;
        job.inst.name = k.name;
        for (const auto& [key, value] : k.params) job.inst.params.set(key, value);
        job.inst.params.set("seed",
                            static_cast<std::int64_t>(seed * 1000 + r + 1));
        job.source = xmt::workloads::instanceSource(job.inst);
        jobs_.push_back(std::move(job));
      }
  }

  void pass(Tracer& tracer, Tally& tally) override {
    compiles_.clear();
    calibrate(tally);
    for (Job& job : jobs_) {
      runJob(job, tracer, tally);
      calibrate(tally);
    }
  }

  void check(const Tracer&, Tally& tally) override {
    // code_bytes counts each kernel once: bfs bakes its graph's edge count
    // into the source, so its distinct sources vary with the seed.
    std::set<std::string> counted;
    tally.codeBytes = 0;
    for (const Job& job : jobs_) {
      Program program = xmt::compileToProgram(job.source);
      if (counted.insert(job.inst.name).second)
        tally.codeBytes += 4 * program.text.size();
      if (job.results.size() != runs_.size()) {  // counted as failed too
        tally.errors.push_back(job.inst.key() + ": " +
                               std::to_string(runs_.size() - job.results.size()) +
                               " of its runs failed");
        continue;
      }
      std::vector<const Outputs*> outs;
      for (std::size_t i = 0; i < runs_.size(); ++i) {
        const Result& res = job.results[i];
        if (!res.halted || res.haltCode != 0)
          tally.errors.push_back(job.inst.key() + " on " + runs_[i].config +
                                 ": did not halt with code 0");
        // Architectural memory, masked by digestExclude, must not depend
        // on the machine or on the simulation mode.
        if (res.digest != job.results[0].digest)
          tally.errors.push_back(job.inst.key() + ": memory digest on " +
                                 runs_[i].config + " " +
                                 xmt::simModeName(runs_[i].mode) +
                                 " differs from " + runs_[0].config + " " +
                                 xmt::simModeName(runs_[0].mode));
        outs.push_back(&res.outputs);
      }
      std::string err = checkKernel(job.inst, program, outs);
      if (!err.empty()) tally.errors.push_back(err);
    }
    compiles_.verify(tally);  // no-op after an untraced pass
  }

 private:
  struct RunSpec {
    const char* config;
    SimMode mode;
  };
  struct Result {
    bool halted;
    std::int32_t haltCode;
    Outputs outputs;
    std::uint64_t digest;
  };
  struct Job {
    WorkloadInstance inst;
    std::string source;
    std::vector<Result> results;
  };

  // One job: the kernel compiled once and run on every machine listed.
  void runJob(Job& job, Tracer& tracer, Tally& tally) {
    job.results.clear();
    tally.attempted += runs_.size();
    JobTimer timer(tally, job.inst.name);
    try {
      Program program =
          compiles_.build(job.source, CompilerOptions{}, tracer, tally);
      const auto& exclude =
          xmt::workloads::findWorkload(job.inst.name).digestExclude;
      for (const RunSpec& spec : runs_) {
        auto sim = load(program, XmtConfig::byName(spec.config), spec.mode,
                        &job.inst, tracer);
        RunResult r = simulate(*sim, spec.config == std::string("chip1024"),
                               tracer, tally);
        tally.simInstructions += r.instructions;
        job.results.push_back({r.halted, r.haltCode,
                               captureOutputs(job.inst, *sim),
                               sim->memoryDigest(exclude)});
      }
    } catch (const std::exception& e) {
      tally.failed += runs_.size() - job.results.size();
      std::fprintf(stderr, "xmtperf: %s failed: %s\n",
                   job.inst.key().c_str(), e.what());
    }
  }

  bool cycle_;
  std::vector<RunSpec> runs_;
  std::vector<Job> jobs_;
  Compiles compiles_;
};

// ---------------------------------------------------------------------------
// sweep_grid: campaign::simulatePoint serially over a design-space grid.
// ---------------------------------------------------------------------------

// Small in-domain sizes: a point's simulation then costs about what its
// compilation costs, as in a sweep of short kernels, so repeated compiles
// of the same program are a large share of the grid.
const std::map<std::string, std::string> kSweepParams = {
    {"bfs", "n = 64\nworkload.degree = 4"},
    {"compaction", "n = 64"},
    {"fft", "n = 16"},
    {"histogram", "n = 64\nworkload.buckets = 8"},
    {"matmul", "n = 4"},
    {"par_comp", "threads = 16\nworkload.iters = 8"},
    {"par_mem", "threads = 16\nworkload.iters = 8"},
    {"parallel_sum", "n = 64"},
    {"prefix_sum", "n = 64"},
    {"ps_counter", "threads = 16\nworkload.iters = 8"},
    {"psm_counter", "threads = 16\nworkload.iters = 8"},
    {"saxpy", "n = 64"},
    {"ser_comp", "iters = 64"},
    {"ser_mem", "iters = 64"},
    {"serial_prefix_sum", "n = 64"},
    {"serial_sum", "n = 64"},
    {"vadd", "n = 64"},
};

class SweepWorkload : public Workload {
 public:
  void setup(std::uint64_t seed, int seconds, Tracer& tracer) override {
    // Every registry kernel on six fpga64 variants in both modes, in
    // `rounds` rounds; kernels that take input data get another input seed
    // in every round, the others repeat their points. The pass runs round
    // after round, so each slot's jobs are spread over the whole pass.
    int rounds = scaled(seconds, 3.33);
    std::map<std::string, int> roundOfSeed;
    std::string seeds;
    for (int r = 0; r < rounds; ++r) {
      std::string value = std::to_string(seed * 1000 + r + 1);
      roundOfSeed[value] = r;
      seeds += (r ? "," : "") + value;
    }
    auto s = tracer.span("workloads.gen");
    std::vector<std::vector<xmt::campaign::CampaignPoint>> byRound(rounds);
    for (const auto& entry : xmt::workloads::workloadRegistry()) {
      std::string spec =
          "campaign = xmtperf-sweep\nbase = fpga64\nworkload = " + entry.name +
          "\nworkload." + kSweepParams.at(entry.name) +
          "\nsweep.clusters = 2,4,8\nsweep.dram_latency = 20,100\n"
          "sweep.mode = functional,cycle\n";
      bool seeded =
          std::count(entry.params.begin(), entry.params.end(), "seed") > 0;
      if (seeded) spec += "sweep.workload.seed = " + seeds + "\n";
      for (auto& point : xmt::campaign::CampaignSpec::fromText(spec).expand()) {
        if (!seeded) {
          for (auto& round : byRound) round.push_back(point);
          continue;
        }
        for (const auto& [dim, value] : point.dims)
          if (dim == "workload.seed")
            byRound[roundOfSeed.at(value)].push_back(point);
      }
    }
    perRound_ = byRound[0].size();
    for (auto& round : byRound)
      for (auto& point : round) {
        // A point's slot is its kernel, machine and mode: every dimension
        // but the input seed.
        std::string slot = point.workload.name;
        for (const auto& [dim, value] : point.dims)
          if (dim != "workload.seed") slot += " " + dim + "=" + value;
        slots_.push_back(std::move(slot));
        points_.push_back(std::move(point));
      }
  }

  void pass(Tracer& tracer, Tally& tally) override {
    compiles_.clear();
    payloads_.clear();
    payloads_.reserve(points_.size());
    calibrate(tally);
    for (std::size_t i = 0; i < points_.size(); ++i) {
      runPoint(i, tracer, tally);
      if ((i + 1) % perRound_ == 0) calibrate(tally);
    }
  }

  void check(const Tracer&, Tally& tally) override {
    // Every payload must report a halted run with code 0.
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (!payloads_[i].ok) {  // counted as failed too
        tally.errors.push_back(points_[i].key + " " +
                               points_[i].workload.key() + ": " +
                               payloads_[i].error);
        continue;
      }
      xmt::Json j = xmt::Json::parse(payloads_[i].json);
      const xmt::Json& result = j.at("result");
      if (!result.at("halted").asBool() || result.at("halt_code").asInt() != 0)
        tally.errors.push_back(points_[i].key + " " +
                               points_[i].workload.key() +
                               ": did not halt with code 0");
      tally.simInstructions +=
          static_cast<std::uint64_t>(j.at("stats").at("instructions").asInt());
    }
    // Each distinct program, with the inputs of its first point, is
    // re-checked against its host reference.
    std::map<std::string, const WorkloadInstance*> distinct;
    std::set<std::string> seenKeys;
    for (const auto& point : points_)
      if (seenKeys.insert(point.workload.key()).second)
        distinct.emplace(xmt::workloads::instanceSource(point.workload),
                         &point.workload);
    std::set<std::string> counted;  // code_bytes: one program per kernel
    tally.codeBytes = 0;
    for (const auto& [source, inst] : distinct) {
      Program program = xmt::compileToProgram(source);
      if (counted.insert(inst->name).second)
        tally.codeBytes += 4 * program.text.size();
      Simulator sim(program, XmtConfig::fpga64(), SimMode::kFunctional);
      xmt::workloads::instancePrepare(*inst, sim);
      RunResult r = sim.run();
      Outputs out = captureOutputs(*inst, sim);
      std::string err = !r.halted || r.haltCode != 0
                            ? inst->key() + ": did not halt with code 0"
                            : checkKernel(*inst, program, {&out});
      if (!err.empty()) tally.errors.push_back(err);
    }
    compiles_.verify(tally);  // no-op after an untraced pass
  }

 private:
  void runPoint(std::size_t i, Tracer& tracer, Tally& tally) {
    const auto& point = points_[i];
    ++tally.attempted;
    JobTimer timer(tally, slots_[i]);
    payloads_.push_back(tracer.enabled() ? tracedPoint(point, tracer, tally)
                                         : xmt::campaign::simulatePoint(point));
    if (!payloads_.back().ok) {
      ++tally.failed;
      std::fprintf(stderr, "xmtperf: %s %s failed: %s\n", point.key.c_str(),
                   point.workload.key().c_str(),
                   payloads_.back().error.c_str());
    }
  }

  // campaign::simulatePoint, re-enacted from its public parts with a span
  // around each; the payload it builds is the one simulatePoint builds.
  xmt::campaign::RunPayload tracedPoint(const xmt::campaign::CampaignPoint& point,
                                        Tracer& tracer, Tally& tally) {
    auto s = tracer.span("campaign.point");
    ++tally.campaignPoints;
    xmt::campaign::RunPayload p;
    try {
      Program program =
          compiles_.build(xmt::workloads::instanceSource(point.workload),
                          CompilerOptions{}, tracer, tally);
      auto sim = load(std::move(program), point.config, point.mode,
                      &point.workload, tracer);
      RunResult result = simulate(*sim, false, tracer, tally);
      if (!result.halted)
        throw xmt::SimError(
            "program did not halt (instruction budget exhausted?)");
      auto ser = tracer.span("campaign.serialize");
      xmt::Json j = xmt::Json::object();
      xmt::Json w = xmt::Json::object();
      w.set("name", xmt::Json::str(point.workload.name));
      xmt::Json params = xmt::Json::object();
      for (const auto& k : point.workload.params.keys())
        params.set(k, xmt::Json::str(point.workload.params.getString(k, "")));
      w.set("params", std::move(params));
      w.set("key", xmt::Json::str(point.workload.key()));
      j.set("workload", std::move(w));
      xmt::Json run =
          xmt::runRecordJson(point.config, point.mode, result, sim->stats());
      for (const auto& [k, v] : run.fields()) j.set(k, v);
      p.json = j.dump();
      p.ok = true;
    } catch (const xmt::Error& e) {
      p.ok = false;
      p.error = e.what();
    }
    return p;
  }

  std::vector<xmt::campaign::CampaignPoint> points_;
  std::vector<std::string> slots_;  // per point
  std::size_t perRound_ = 1;        // points in one round
  std::vector<xmt::campaign::RunPayload> payloads_;
  Compiles compiles_;
};

// ---------------------------------------------------------------------------
// fuzz_distinct: xmtsmith programs through the three-way oracle.
// ---------------------------------------------------------------------------

class FuzzWorkload : public Workload {
 public:
  void setup(std::uint64_t seed, int seconds, Tracer& tracer) override {
    // The program stream is xmtsmith seeds 1..N for every --seed: per-
    // program cost spans more than two orders of magnitude, so a
    // seed-drawn stream of N programs would move host_s by more than any
    // bound from the draw alone. --seed picks the cycle legs' machines.
    int count = scaled(seconds, 3.0);
    {
      auto s = tracer.span("testing.generate");
      for (int i = 1; i <= count; ++i)
        programs_.push_back(
            xmt::testing::generate(static_cast<std::uint64_t>(i)));
    }
    auto s = tracer.span("workloads.gen");
    const char* small[] = {"2", "4"};
    const char* large[] = {"8", "16"};
    const char* fast[] = {"20", "40"};
    const char* slow[] = {"80", "100"};
    opts_.configs = xmt::testing::configPointsFromSpec(
        std::string("campaign = xmtperf-fuzz\nbase = fpga64\nworkload = vadd\n") +
        "sweep.clusters = " + small[seed & 1] + "," + large[(seed >> 1) & 1] +
        "\nsweep.dram_latency = " + fast[(seed >> 2) & 1] + "," +
        slow[(seed >> 3) & 1] + "\n");
  }

  void pass(Tracer& tracer, Tally& tally) override {
    compiles_.clear();
    outcomes_.clear();
    calibrate(tally);
    for (const auto& prog : programs_) {
      ++tally.attempted;
      {
        JobTimer timer(tally, "xmtsmith seed " + std::to_string(prog.seed));
        outcomes_.push_back(tracer.enabled()
                                ? tracedDiff(prog, tracer, tally)
                                : xmt::testing::runDiff(prog, opts_));
      }
      calibrate(tally);
    }
  }

  void check(const Tracer& tracer, Tally& tally) override {
    for (std::size_t i = 0; i < programs_.size(); ++i)
      if (!outcomes_[i].ok())
        tally.errors.push_back("xmtsmith seed " +
                               std::to_string(programs_[i].seed) + ": " +
                               outcomes_[i].describe());
    // runDiff keeps its programs and runs to itself, so the exact counts
    // come from compiling, with runDiff's options, and running the same
    // legs again here. A traced run also checks that the traced pass
    // produced this assembly and committed the same instructions.
    std::uint64_t instructions = 0, codeBytes = 0;
    for (const auto& prog : programs_) {
      std::string source = prog.render();
      for (int opt : opts_.optLevels) {
        CompilerOptions co = compileOptions(opt);
        std::string asmText = xmt::compileXmtc(source, co).asmText;
        if (tracer.enabled()) {
          const std::string* traced = compiles_.tracedAsm(source, co);
          if (traced == nullptr || *traced != asmText)
            tally.errors.push_back(
                "traced compiler passes disagree with compileXmtc on "
                "xmtsmith seed " + std::to_string(prog.seed) + " at -O" +
                std::to_string(opt) + "; the compiler.* pass times are stale");
        }
        Program program = xmt::assemble(asmText);
        codeBytes += 4 * program.text.size();
        instructions += legInstructions(program, XmtConfig::fpga64(),
                                        SimMode::kFunctional);
        for (const auto& point : opts_.configs)
          instructions += legInstructions(program, point.config,
                                          SimMode::kCycleAccurate);
      }
    }
    if (tracer.enabled() && instructions != tally.simInstructions)
      tally.errors.push_back("traced legs committed " +
                             std::to_string(tally.simInstructions) +
                             " instructions, runDiff's legs " +
                             std::to_string(instructions));
    tally.simInstructions = instructions;
    tally.codeBytes = codeBytes;
  }

 private:
  // The options runDiff compiles each leg's program with.
  CompilerOptions compileOptions(int opt) const {
    CompilerOptions co;
    co.optLevel = opt;
    co.outline = opts_.outline;
    co.werrorAsm = opts_.werrorAsm;
    return co;
  }

  std::uint64_t legInstructions(const Program& program, XmtConfig cfg,
                                SimMode mode) const {
    cfg.maxInstructions = opts_.maxInstructions;
    Simulator sim(program, cfg, mode);
    return sim.run().instructions;
  }

  // testing::runDiff re-enacted from its public parts (interpret, compile
  // passes, assemble, simulator legs) with a span around each. Legs are
  // compared with the reference the way runDiff compares them: halt code,
  // printf output, every global, then the functional-vs-cycle digest.
  xmt::testing::DiffOutcome tracedDiff(const xmt::testing::GenProgram& prog,
                                       Tracer& tracer, Tally& tally) {
    auto s = tracer.span("testing.rundiff");
    xmt::testing::DiffOutcome out;
    xmt::testing::RefResult ref;
    {
      auto i = tracer.span("testing.interpret");
      ref = xmt::testing::interpret(prog);
    }
    if (!ref.ok) {
      out.mismatches.push_back({"ref-budget", 0, "", ref.error});
      return out;
    }
    std::string source = prog.render();
    for (int opt : opts_.optLevels) {
      Program program;
      try {
        program = compiles_.build(source, compileOptions(opt), tracer, tally);
      } catch (const std::exception& e) {
        out.mismatches.push_back({"compile-error", opt, "", e.what()});
        continue;
      }
      std::uint64_t funcDigest = 0;
      leg(program, XmtConfig::fpga64(), SimMode::kFunctional, ref, opt, "",
          tracer, tally, out, &funcDigest);
      for (const auto& point : opts_.configs)
        leg(program, point.config, SimMode::kCycleAccurate, ref, opt,
            point.name, tracer, tally, out, &funcDigest);
    }
    return out;
  }

  void leg(const Program& program, XmtConfig cfg, SimMode mode,
           const xmt::testing::RefResult& ref, int opt,
           const std::string& configName, Tracer& tracer, Tally& tally,
           xmt::testing::DiffOutcome& out, std::uint64_t* funcDigest) {
    ++out.legsRun;
    cfg.maxInstructions = opts_.maxInstructions;
    try {
      auto sim = load(program, cfg, mode, nullptr, tracer);
      RunResult r = simulate(*sim, false, tracer, tally);
      tally.simInstructions += r.instructions;
      if (!r.halted) {
        out.mismatches.push_back({"sim-error", opt, configName, "did not halt"});
        return;
      }
      if (r.haltCode != ref.haltCode || r.output != ref.output) {
        out.mismatches.push_back({"halt-code/output", opt, configName,
                                  "differs from the reference"});
        return;
      }
      for (const auto& [name, expect] : ref.globals) {
        auto got = sim->getGlobalArray(name);
        if (got.size() > expect.size()) got.resize(expect.size());
        if (got != expect) {
          out.mismatches.push_back({"global", opt, configName, name});
          return;
        }
      }
      std::uint64_t digest = sim->memoryDigest();
      if (mode == SimMode::kFunctional)
        *funcDigest = digest;
      else if (digest != *funcDigest)
        out.mismatches.push_back({"digest", opt, configName, "differs"});
    } catch (const std::exception& e) {
      out.mismatches.push_back({"sim-error", opt, configName, e.what()});
    }
  }

  std::vector<xmt::testing::GenProgram> programs_;
  xmt::testing::DiffOptions opts_;
  std::vector<xmt::testing::DiffOutcome> outcomes_;
  Compiles compiles_;
};

}  // namespace

double medianPassSeconds(const Tally& tally) {
  const std::vector<double>& units = tally.calibration;
  double sum = 0;
  for (const auto& [slot, jobs] : tally.jobSeconds) {
    std::vector<double> times;
    for (const Tally::JobTime& job : jobs) {
      double scale = 1.0;
      if (!units.empty()) {
        // The units just before and just after the job.
        std::size_t after = std::min(job.unitsBefore, units.size() - 1);
        std::size_t before = job.unitsBefore > 0 ? job.unitsBefore - 1 : 0;
        scale = 2 * kReferenceUnitSeconds / (units[before] + units[after]);
      }
      times.push_back(job.seconds * scale);
    }
    std::sort(times.begin(), times.end());
    std::size_t n = times.size();
    double median =
        n % 2 ? times[n / 2] : 0.5 * (times[n / 2 - 1] + times[n / 2]);
    sum += static_cast<double>(n) * median;
  }
  return sum;
}

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> kNames = {
      "cycle_long", "functional_long", "sweep_grid", "fuzz_distinct"};
  return kNames;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "cycle_long") return std::make_unique<KernelWorkload>(true);
  if (name == "functional_long") return std::make_unique<KernelWorkload>(false);
  if (name == "sweep_grid") return std::make_unique<SweepWorkload>();
  if (name == "fuzz_distinct") return std::make_unique<FuzzWorkload>();
  return nullptr;
}

}  // namespace xmtperf
