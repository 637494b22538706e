#include "calib.h"

#include <time.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>

namespace xmtperf {

namespace {

double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

// The work mixes what the simulator spends its time on: decoding and
// dispatching instructions against a register file and a memory, and
// popping timed events off a queue into a table. Its storage is static and
// allocates nothing, so that the units leave the process's memory, and
// peak_rss_mb, as the toolchain alone would.
struct Ins {
  std::uint8_t op, a, b;
  std::uint16_t c;
};
std::array<Ins, 1024> program;
std::array<std::uint32_t, 1 << 16> memory;
std::array<std::uint32_t, 1 << 16> table;
std::array<std::uint64_t, 64> events;

std::uint64_t unit() {
  std::uint64_t s = 88172645463325252ull;
  for (Ins& i : program) {
    std::uint64_t r = xorshift(s);
    i = {static_cast<std::uint8_t>(r % 6),
         static_cast<std::uint8_t>((r >> 8) % 16),
         static_cast<std::uint8_t>((r >> 16) % 16),
         static_cast<std::uint16_t>(r >> 24)};
  }
  memory.fill(0);
  std::uint32_t reg[16];
  for (std::uint32_t k = 0; k < 16; ++k) reg[k] = k + 1;
  std::size_t pc = 0;
  for (int step = 0; step < 2'000'000; ++step) {
    const Ins& i = program[pc];
    switch (i.op) {
      case 0: reg[i.a] += reg[i.b] + i.c; break;
      case 1: reg[i.a] ^= reg[i.b] * 2654435761u; break;
      case 2: reg[i.a] = memory[(reg[i.b] + i.c) & 0xffff]; break;
      case 3: memory[(reg[i.a] + i.c) & 0xffff] = reg[i.b]; break;
      case 4:
        if (reg[i.a] & 1) {
          pc = i.c % program.size();
          continue;
        }
        break;
      default: reg[i.a] = (reg[i.a] >> 3) | (reg[i.b] << 29); break;
    }
    pc = (pc + 1) % program.size();
  }
  // A min-heap of 64 pending event times, fed back as each one fires.
  table.fill(0);
  for (std::uint64_t& e : events) e = xorshift(s) % 1000;
  std::make_heap(events.begin(), events.end(), std::greater<>());
  for (int step = 0; step < 300'000; ++step) {
    std::pop_heap(events.begin(), events.end(), std::greater<>());
    std::uint64_t t = events.back();
    ++table[(t * 0x9e3779b97f4a7c15ull) >> 48];
    events.back() = t + 1 + xorshift(s) % 100;
    std::push_heap(events.begin(), events.end(), std::greater<>());
  }
  return reg[0] + table[events.front() & 0xffff];
}

}  // namespace

double calibrationUnit() {
  static volatile std::uint64_t sink;
  double start = threadCpuSeconds();
  sink = sink + unit();
  return threadCpuSeconds() - start;
}

}  // namespace xmtperf
