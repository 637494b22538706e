#include "trace.h"

#include <chrono>

#include "src/compiler/analysis/asmverify.h"
#include "src/compiler/analysis/xmtai.h"
#include "src/compiler/ast.h"
#include "src/compiler/emit.h"
#include "src/compiler/lower.h"
#include "src/compiler/opt.h"
#include "src/compiler/parser.h"
#include "src/compiler/postpass.h"
#include "src/compiler/regalloc.h"
#include "src/compiler/sema.h"
#include "src/compiler/transforms.h"

namespace xmtperf {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Span::Span(Tracer* tracer, const char* layer) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back({layer, nowSeconds(), 0.0, tracer_->open_});
  tracer_->open_ = static_cast<std::ptrdiff_t>(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  Record& r = tracer_->spans_[index_];
  r.end = nowSeconds();
  tracer_->open_ = r.parent;
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end - spans_[i].start;
  for (const Record& r : spans_)
    if (r.parent >= 0)
      self[static_cast<std::size_t>(r.parent)] -= r.end - r.start;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].layer] += self[i];
  return out;
}

std::map<std::string, double> Tracer::totalSeconds() const {
  std::map<std::string, double> out;
  for (const Record& r : spans_) out[r.layer] += r.end - r.start;
  return out;
}

std::string compileAsm(const std::string& source,
                       const xmt::CompilerOptions& opts, Tracer& tracer) {
  using namespace xmt;
  if (!tracer.enabled()) return compileXmtc(source, opts).asmText;

  std::unique_ptr<TranslationUnit> tu;
  {
    auto s = tracer.span("compiler.front");
    tu = parse(source);
    analyze(*tu);
    if (opts.inlineParallel) inlineParallelCalls(*tu);
    if (opts.clusterThreads) clusterVirtualThreads(*tu, opts.clusterCount);
    if (opts.outline) outlineSpawnBlocks(*tu);
    printAst(*tu);
  }

  analysis::AiConfig aiCfg;
  aiCfg.bounds = opts.lintBounds;
  aiCfg.divZero = opts.lintDivZero;
  aiCfg.shift = opts.lintShift;
  aiCfg.psDiscipline = opts.lintPsDiscipline;
  if (opts.analyzeRaces || aiCfg.any()) {
    auto s = tracer.span("compiler.xmtai");
    auto lintTu = parse(source);
    analyze(*lintTu);
    if (opts.inlineParallel) inlineParallelCalls(*lintTu);
    IrModule lintMod = lowerToIr(*lintTu);
    std::vector<Diagnostic> diags =
        analysis::runModuleAnalysis(lintMod, opts.analyzeRaces, aiCfg);
    if (opts.werrorRace)
      for (const Diagnostic& d : diags)
        if (isRaceDiag(d)) {
          Diagnostic err = d;
          err.severity = Severity::kError;
          throw DiagnosticError(std::move(err));
        }
  }

  std::string asmText;
  {
    auto s = tracer.span("compiler.backend");
    IrModule mod = lowerToIr(*tu);
    std::vector<FrameInfo> frames;
    frames.reserve(mod.funcs.size());
    for (auto& fn : mod.funcs) {
      optimizeIr(fn, opts.optLevel);
      if (opts.nonBlockingStores) applyNonBlockingStores(fn);
      if (opts.prefetch) insertPrefetches(fn, opts.prefetchDepth);
      if (opts.outline) verifyParallelDataflow(fn);
      frames.push_back(allocateRegisters(fn));
    }
    asmText = emitAssembly(mod, frames, opts.layoutQuirk);
  }

  if (opts.postPass) {
    auto s = tracer.span("compiler.postpass");
    asmText = runPostPass(asmText).asmText;
  }

  if (opts.verifyAsm) {
    auto s = tracer.span("compiler.asmverify");
    std::vector<Diagnostic> vds = analysis::verifyAssembly(asmText);
    if (opts.werrorAsm && !vds.empty()) {
      Diagnostic err = vds.front();
      err.severity = Severity::kError;
      throw DiagnosticError(std::move(err));
    }
  }
  return asmText;
}

}  // namespace xmtperf
