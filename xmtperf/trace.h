// Span recording for the benchmark's traced run.
//
// Spans are taken from outside the library, around the calls into each
// layer's public functions. They are kept in memory and aggregated when the
// run ends; nothing is written while a pass is being timed. A disabled
// tracer reads no clock, so the untraced pass carries no tracing cost.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/compiler/driver.h"

namespace xmtperf {

/// Seconds on the monotonic clock.
double nowSeconds();

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span around one call into a layer. Spans nest: a span opened
  /// while another is open is its child.
  class Span {
   public:
    Span(Tracer* tracer, const char* layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  /// `layer` must be a string literal (spans keep the pointer).
  Span span(const char* layer) { return Span(enabled_ ? this : nullptr, layer); }

  /// Time inside each layer's spans minus the time covered by their child
  /// spans, summed per layer name.
  std::map<std::string, double> selfSeconds() const;
  /// Inclusive time per layer name.
  std::map<std::string, double> totalSeconds() const;

 private:
  struct Record {
    const char* layer;
    double start;
    double end;
    std::ptrdiff_t parent;
  };
  bool enabled_;
  std::vector<Record> spans_;
  std::ptrdiff_t open_ = -1;
};

/// compileXmtc() re-enacted from the public pass functions, in driver.cc
/// order, with one span per compiler stage: compiler.front (parse, sema,
/// inline, cluster, outline), compiler.xmtai (lint re-parse, lowering and
/// runModuleAnalysis), compiler.backend (lower, opt, regalloc, emit),
/// compiler.postpass and compiler.asmverify. Returns the final assembly.
/// With a disabled tracer it calls compileXmtc() itself.
std::string compileAsm(const std::string& source,
                       const xmt::CompilerOptions& opts, Tracer& tracer);

}  // namespace xmtperf
