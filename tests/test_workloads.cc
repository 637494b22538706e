// Workload integration tests: BFS and connectivity (the paper's flagship
// irregular problems) plus the kernel generators, validated against host
// reference implementations in both simulation modes.
#include <gtest/gtest.h>

#include <cstring>

#include "src/campaign/spec.h"
#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/core/toolchain.h"
#include "src/workloads/graphs.h"
#include "src/workloads/kernels.h"
#include "src/workloads/registry.h"

namespace xmt {
namespace {

using workloads::Graph;

void loadGraphCsr(Simulator& sim, const Graph& g) {
  sim.setGlobalArray("rowStart", g.rowStart);
  sim.setGlobalArray("adj", g.adj);
}

TEST(WorkloadBfs, ParallelMatchesHostReference) {
  Graph g = workloads::randomGraph(200, 3, 42);
  auto ref = workloads::hostBfs(g, 0);
  Toolchain tc;
  for (SimMode mode : {SimMode::kFunctional, SimMode::kCycleAccurate}) {
    tc.options().mode = mode;
    auto sim = tc.makeSimulator(workloads::bfsParallelSource(g, 0));
    loadGraphCsr(*sim, g);
    ASSERT_TRUE(sim->run().halted);
    EXPECT_EQ(sim->getGlobalArray("dist"), ref)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(WorkloadBfs, SerialMatchesHostReference) {
  Graph g = workloads::randomGraph(150, 4, 7);
  auto ref = workloads::hostBfs(g, 0);
  Toolchain tc;
  auto sim = tc.makeSimulator(workloads::bfsSerialSource(g, 0));
  loadGraphCsr(*sim, g);
  ASSERT_TRUE(sim->run().halted);
  EXPECT_EQ(sim->getGlobalArray("dist"), ref);
}

TEST(WorkloadBfs, ParallelBeatsSerialInCycles) {
  // The Section II-B shape: the PRAM BFS wins on the parallel machine.
  Graph g = workloads::randomGraph(400, 4, 3);
  Toolchain tc;
  auto par = tc.makeSimulator(workloads::bfsParallelSource(g, 0));
  loadGraphCsr(*par, g);
  auto rp = par->run();
  auto ser = tc.makeSimulator(workloads::bfsSerialSource(g, 0));
  loadGraphCsr(*ser, g);
  auto rs = ser->run();
  ASSERT_TRUE(rp.halted && rs.halted);
  EXPECT_LT(rp.cycles, rs.cycles)
      << "parallel BFS should need fewer cycles on 64 TCUs";
}

TEST(WorkloadBfs, RandomGraphsPropertySweep) {
  Rng rng(123);
  for (int trial = 0; trial < 5; ++trial) {
    int n = 50 + static_cast<int>(rng.below(150));
    int deg = 2 + static_cast<int>(rng.below(4));
    Graph g = workloads::randomGraph(n, deg, rng.next());
    auto ref = workloads::hostBfs(g, 0);
    Toolchain tc;
    tc.options().mode = SimMode::kFunctional;
    auto sim = tc.makeSimulator(workloads::bfsParallelSource(g, 0));
    loadGraphCsr(*sim, g);
    ASSERT_TRUE(sim->run().halted);
    ASSERT_EQ(sim->getGlobalArray("dist"), ref) << "n=" << n;
  }
}

TEST(WorkloadConnectivity, ParallelMatchesHostReference) {
  Graph g = workloads::randomGraph(120, 2, 9);
  auto ref = workloads::hostComponents(g);
  Toolchain tc;
  for (SimMode mode : {SimMode::kFunctional, SimMode::kCycleAccurate}) {
    tc.options().mode = mode;
    auto sim = tc.makeSimulator(workloads::connectivityParallelSource(g));
    sim->setGlobalArray("esrc", g.src);
    sim->setGlobalArray("edst", g.dst);
    ASSERT_TRUE(sim->run().halted);
    EXPECT_EQ(sim->getGlobalArray("comp"), ref);
    EXPECT_GT(sim->getGlobal("rounds"), 0);
  }
}

TEST(WorkloadConnectivity, SerialMatchesHostReference) {
  Graph g = workloads::randomGraph(120, 2, 10);
  auto ref = workloads::hostComponents(g);
  Toolchain tc;
  auto sim = tc.makeSimulator(workloads::connectivitySerialSource(g));
  sim->setGlobalArray("esrc", g.src);
  sim->setGlobalArray("edst", g.dst);
  ASSERT_TRUE(sim->run().halted);
  EXPECT_EQ(sim->getGlobalArray("comp"), ref);
}

TEST(WorkloadKernels, CompactionMatchesHost) {
  Rng rng(5);
  std::vector<std::int32_t> a(300, 0);
  for (auto& v : a)
    if (rng.chance(0.3)) v = static_cast<std::int32_t>(rng.below(1000)) + 1;
  auto ref = workloads::hostCompaction(a);
  Toolchain tc;
  auto sim = tc.makeSimulator(
      workloads::compactionSource(static_cast<int>(a.size())));
  sim->setGlobalArray("A", a);
  ASSERT_TRUE(sim->run().halted);
  int count = sim->getGlobal("count");
  ASSERT_EQ(count, static_cast<int>(ref.size()));
  auto b = sim->getGlobalArray("B");
  std::vector<std::int32_t> got(b.begin(), b.begin() + count);
  std::sort(got.begin(), got.end());
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(got, ref);
}

TEST(WorkloadKernels, HistogramMatchesHost) {
  Rng rng(6);
  std::vector<std::int32_t> a(256);
  for (auto& v : a) v = static_cast<std::int32_t>(rng.below(16));
  auto ref = workloads::hostHistogram(a, 16);
  Toolchain tc;
  auto sim = tc.makeSimulator(workloads::histogramSource(256, 16));
  sim->setGlobalArray("A", a);
  ASSERT_TRUE(sim->run().halted);
  EXPECT_EQ(sim->getGlobalArray("H"), ref);
}

TEST(WorkloadKernels, ParallelAndSerialSumsAgree) {
  std::vector<std::int32_t> a(200);
  std::int32_t expect = 0;
  for (int i = 0; i < 200; ++i) {
    a[static_cast<std::size_t>(i)] = i * 3 - 100;
    expect += i * 3 - 100;
  }
  Toolchain tc;
  for (const auto& src :
       {workloads::parallelSumSource(200), workloads::serialSumSource(200)}) {
    auto sim = tc.makeSimulator(src);
    sim->setGlobalArray("A", a);
    ASSERT_TRUE(sim->run().halted);
    EXPECT_EQ(sim->getGlobal("total"), expect);
  }
}

TEST(WorkloadKernels, SaxpyFloat) {
  Toolchain tc;
  auto sim = tc.makeSimulator(workloads::saxpySource(50));
  std::vector<std::int32_t> x(50), y(50);
  auto bits = [](float f) {
    std::int32_t b;
    std::memcpy(&b, &f, 4);
    return b;
  };
  for (int i = 0; i < 50; ++i) {
    x[static_cast<std::size_t>(i)] = bits(static_cast<float>(i));
    y[static_cast<std::size_t>(i)] = bits(1.0f);
  }
  sim->setGlobalArray("X", x);
  sim->setGlobalArray("Y", y);
  sim->setGlobal("alpha", bits(2.0f));
  ASSERT_TRUE(sim->run().halted);
  auto out = sim->getGlobalArray("Y");
  for (int i = 0; i < 50; ++i) {
    float f;
    std::int32_t w = out[static_cast<std::size_t>(i)];
    std::memcpy(&f, &w, 4);
    EXPECT_FLOAT_EQ(f, 2.0f * static_cast<float>(i) + 1.0f) << i;
  }
}

TEST(WorkloadKernels, PrefixSumMatchesSerialAndHost) {
  constexpr int kN = 300;
  Rng rng(77);
  std::vector<std::int32_t> a(kN), expect(kN);
  std::int32_t acc = 0;
  for (int i = 0; i < kN; ++i) {
    a[static_cast<std::size_t>(i)] =
        static_cast<std::int32_t>(rng.range(-50, 50));
    acc += a[static_cast<std::size_t>(i)];
    expect[static_cast<std::size_t>(i)] = acc;
  }
  Toolchain tc;
  for (const auto& src : {workloads::prefixSumSource(kN),
                          workloads::serialPrefixSumSource(kN)}) {
    auto sim = tc.makeSimulator(src);
    sim->setGlobalArray("A", a);
    ASSERT_TRUE(sim->run().halted);
    EXPECT_EQ(sim->getGlobalArray("S"), expect);
  }
}

TEST(WorkloadKernels, PsAndPsmCountersAreExact) {
  Toolchain tc;
  constexpr int kThreads = 60, kIters = 5;
  for (const auto& src :
       {workloads::psCounterSource(kThreads, kIters),
        workloads::psmCounterSource(kThreads, kIters)}) {
    for (SimMode mode : {SimMode::kFunctional, SimMode::kCycleAccurate}) {
      tc.options().mode = mode;
      auto e = tc.run(src);
      ASSERT_TRUE(e.result.halted);
      EXPECT_EQ(e.sim->getGlobal("total"), kThreads * kIters);
    }
  }
  tc.options().mode = SimMode::kCycleAccurate;
}

TEST(WorkloadKernels, PsCheaperThanPsmUnderContention) {
  Toolchain tc;
  auto ps = tc.run(workloads::psCounterSource(64, 8));
  auto psm = tc.run(workloads::psmCounterSource(64, 8));
  ASSERT_TRUE(ps.result.halted && psm.result.halted);
  EXPECT_LT(ps.result.cycles, psm.result.cycles)
      << "ps combines at the PS unit; psm serializes at a cache module";
}

TEST(WorkloadKernels, FftMatchesHostDft) {
  constexpr int kN = 64;
  Rng rng(31);
  std::vector<float> re(kN), im(kN);
  for (int i = 0; i < kN; ++i) {
    re[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.range(-8, 8)) / 4.0f;
    im[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.range(-8, 8)) / 4.0f;
  }
  std::vector<double> refRe, refIm;
  workloads::hostDft(re, im, refRe, refIm);

  auto bits = [](float f) {
    std::int32_t b;
    std::memcpy(&b, &f, 4);
    return b;
  };
  auto fromBits = [](std::int32_t b) {
    float f;
    std::memcpy(&f, &b, 4);
    return f;
  };
  auto tables = workloads::fftTables(kN);
  Toolchain tc;
  for (SimMode mode : {SimMode::kFunctional, SimMode::kCycleAccurate}) {
    tc.options().mode = mode;
    auto sim = tc.makeSimulator(workloads::fftSource(kN));
    std::vector<std::int32_t> reBits(kN), imBits(kN);
    for (int i = 0; i < kN; ++i) {
      reBits[static_cast<std::size_t>(i)] = bits(re[static_cast<std::size_t>(i)]);
      imBits[static_cast<std::size_t>(i)] = bits(im[static_cast<std::size_t>(i)]);
    }
    sim->setGlobalArray("RE", reBits);
    sim->setGlobalArray("IM", imBits);
    sim->setGlobalArray("WR", tables.wr);
    sim->setGlobalArray("WI", tables.wi);
    sim->setGlobalArray("BR", tables.br);
    ASSERT_TRUE(sim->run().halted);
    auto outRe = sim->getGlobalArray("RE");
    auto outIm = sim->getGlobalArray("IM");
    for (int k = 0; k < kN; ++k) {
      EXPECT_NEAR(fromBits(outRe[static_cast<std::size_t>(k)]),
                  refRe[static_cast<std::size_t>(k)], 1e-2)
          << "RE[" << k << "] mode " << static_cast<int>(mode);
      EXPECT_NEAR(fromBits(outIm[static_cast<std::size_t>(k)]),
                  refIm[static_cast<std::size_t>(k)], 1e-2)
          << "IM[" << k << "]";
    }
  }
  tc.options().mode = SimMode::kCycleAccurate;
}

TEST(WorkloadKernels, TableOneMicrobenchmarksRun) {
  // Smoke-test the four Table I microbenchmark groups on the small config.
  Toolchain tc;
  for (const auto& src :
       {workloads::parMemSource(64, 8), workloads::parCompSource(64, 8),
        workloads::serMemSource(200), workloads::serCompSource(200)}) {
    auto e = tc.run(src);
    EXPECT_TRUE(e.result.halted);
    EXPECT_GT(e.result.cycles, 0u);
  }
}

TEST(WorkloadKernels, MemIntensiveWaitsMoreThanCompute) {
  Toolchain tc;
  auto mem = tc.run(workloads::parMemSource(64, 16));
  auto comp = tc.run(workloads::parCompSource(64, 16));
  ASSERT_TRUE(mem.result.halted && comp.result.halted);
  double memWaitFrac =
      static_cast<double>(mem.sim->stats().memWaitCycles) /
      static_cast<double>(mem.sim->stats().instructions);
  double compWaitFrac =
      static_cast<double>(comp.sim->stats().memWaitCycles) /
      static_cast<double>(comp.sim->stats().instructions);
  EXPECT_GT(memWaitFrac, compWaitFrac);
}

// Sizes outside a kernel's domain are structured config errors, not silent
// runs: fft n=6 used to halt cleanly while reading RE/IM out of bounds.
TEST(WorkloadRegistry, RejectsSizesOutsideTheKernelDomain) {
  auto fieldOf = [](const std::string& name, const std::string& n) {
    workloads::WorkloadInstance w;
    w.name = name;
    w.params.set("n", n);
    try {
      workloads::instanceSource(w);
    } catch (const ConfigError& e) {
      return e.field();
    }
    return std::string("accepted");
  };
  for (const char* n : {"6", "0", "1", "-4", "96"})
    EXPECT_EQ(fieldOf("fft", n), "workload.n") << "fft n=" << n;
  for (const char* n : {"0", "-1"})
    EXPECT_EQ(fieldOf("matmul", n), "workload.n") << "matmul n=" << n;
  for (const char* n : {"2", "16", "2048"})
    EXPECT_EQ(fieldOf("fft", n), "accepted") << "fft n=" << n;
  for (const char* n : {"1", "4", "40", "128"})
    EXPECT_EQ(fieldOf("matmul", n), "accepted") << "matmul n=" << n;

  // Campaign specs fail when they are expanded, before any point runs.
  auto spec = campaign::CampaignSpec::fromText(
      "campaign = bad_fft\nbase = fpga64\nsweep.clusters = 1,2\n"
      "workload = fft\nworkload.n = 6\nmode = functional\n");
  EXPECT_THROW(spec.expand(), ConfigError);
}

}  // namespace
}  // namespace xmt
