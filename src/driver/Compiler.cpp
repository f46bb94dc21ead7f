//===- driver/Compiler.cpp ------------------------------------------------===//

#include "driver/Compiler.h"

#include "analysis/Liveness.h"
#include "ir/Verify.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "ir/Lower.h"
#include "types/Infer.h"

using namespace tfgc;

std::unique_ptr<CompiledProgram> Compiler::compile(const std::string &Source,
                                                   std::string *ErrorOut) {
  DiagnosticEngine Diags;
  auto Fail = [&]() -> std::unique_ptr<CompiledProgram> {
    if (ErrorOut)
      *ErrorOut = Diags.render();
    return nullptr;
  };

  Lexer Lex(Source, Diags);
  std::vector<Token> Tokens = Lex.tokenize();
  if (Diags.hasErrors())
    return Fail();

  Parser Parse(std::move(Tokens), Diags);
  std::optional<Program> Ast = Parse.parseProgram();
  if (!Ast)
    return Fail();

  auto Types = std::make_unique<TypeContext>();
  TypeChecker Checker(*Types, Diags, Options.RequireMonomorphic);
  std::optional<SemaInfo> Sema = Checker.check(*Ast);
  if (!Sema)
    return Fail();

  Lowerer Low(*Types, *Sema, Diags);
  std::optional<IrProgram> Ir = Low.lower(*Ast);
  if (!Ir)
    return Fail();
  std::string VerifyError;
  if (!verifyIr(*Ir, &VerifyError)) {
    Diags.error(SourceLoc(), "internal error: malformed IR: " + VerifyError);
    return Fail();
  }

  MonomorphiseResult MonoResult;
  if (Options.Monomorphise) {
    MonoResult = monomorphise(*Ir);
    if (!verifyIr(*Ir, &VerifyError)) {
      Diags.error(SourceLoc(),
                  "internal error: malformed IR after monomorphisation: " +
                      VerifyError);
      return Fail();
    }
  }

  auto CP = std::make_unique<CompiledProgram>();
  CP->Options = Options;
  CP->Mono = MonoResult;
  CP->Types = std::move(Types);
  CP->Prog = std::move(*Ir);
  CP->Prog.Types = CP->Types.get();

  LivenessOptions LiveOpts;
  LiveOpts.UseLiveness = Options.UseLiveness;
  LiveOpts.TraceCallArgs = Options.TaskingSafe;
  computeTraceSets(CP->Prog, LiveOpts);

  if (Options.UseGcPointAnalysis && !Options.TaskingSafe) {
    // FloatsAllocate = true keeps the shared code image sound for the
    // tagged model too (conservative for tag-free, which never collects
    // at float sites).
    GcPointOptions GcOpts;
    GcOpts.FloatsAllocate = true;
    CP->GcPoints = computeGcPoints(CP->Prog, GcOpts);
  } else {
    assumeAllSitesTrigger(CP->Prog);
  }

  CP->Image.build(CP->Prog);
  CP->Recon = computeExtractionPaths(CP->Prog);

  CP->Compiled.build(CP->Prog, CP->Recon);
  CP->Interp = std::make_unique<InterpretedMetadata>(*CP->Types);
  CP->Interp->build(CP->Prog, CP->Recon);
  CP->Appel = std::make_unique<AppelMetadata>(*CP->Types);
  CP->Appel->build(CP->Prog, CP->Recon);
  return CP;
}

std::unique_ptr<Collector>
CompiledProgram::makeCollector(GcStrategy Strategy, GcAlgorithm Algo,
                               size_t HeapBytes, Stats &St,
                               std::string *Error, size_t NurseryBytes) {
  if (Strategy != GcStrategy::Tagged && !Recon.ok() &&
      !Options.GlogerDummies) {
    if (Error) {
      std::string Msg =
          "program not collectible tag-free: type parameter(s) of ";
      for (const auto &V : Recon.Violations) {
        Msg += Prog.fn(V.Fn).Name;
        Msg += ' ';
      }
      Msg += "do not occur in the closure's function type (Goldberg '91 "
             "limitation, closed by Goldberg & Gloger '92)";
      *Error = Msg;
    }
    return nullptr;
  }
  switch (Strategy) {
  case GcStrategy::Tagged:
    return std::make_unique<TaggedCollector>(Algo, HeapBytes, St,
                                             NurseryBytes);
  case GcStrategy::CompiledTagFree:
    return std::make_unique<GoldbergCollector>(
        TraceMethod::Compiled, Algo, HeapBytes, St, Prog, Image, *Types,
        &Compiled, Interp.get(), Options.GlogerDummies, NurseryBytes);
  case GcStrategy::InterpretedTagFree:
    return std::make_unique<GoldbergCollector>(
        TraceMethod::Interpreted, Algo, HeapBytes, St, Prog, Image, *Types,
        &Compiled, Interp.get(), Options.GlogerDummies, NurseryBytes);
  case GcStrategy::AppelTagFree:
    return std::make_unique<AppelCollector>(Algo, HeapBytes, St, Prog, Image,
                                            *Types, Appel.get(),
                                            Options.GlogerDummies,
                                            NurseryBytes);
  }
  return nullptr;
}

VmOptions tfgc::defaultVmOptions(GcStrategy Strategy, bool GcStress) {
  // Frame zeroing is the collector's call (scansUninitializedSlots), made
  // when the VM is built, so nothing here depends on the strategy; the
  // parameter stays for the callers that pass it.
  (void)Strategy;
  VmOptions O;
  O.GcStress = GcStress;
  return O;
}

ExecResult tfgc::execProgram(const std::string &Source, GcStrategy Strategy,
                             GcAlgorithm Algo, size_t HeapBytes, bool GcStress,
                             CompileOptions Options, size_t NurseryBytes) {
  ExecResult R;
  Compiler C(Options);
  std::unique_ptr<CompiledProgram> P = C.compile(Source, &R.CompileError);
  if (!P)
    return R;
  std::string ColError;
  std::unique_ptr<Collector> Col = P->makeCollector(
      Strategy, Algo, HeapBytes, R.St, &ColError, NurseryBytes);
  if (!Col) {
    R.CompileError = ColError;
    return R;
  }
  R.CompileOk = true;
  Vm M(P->Prog, P->Image, *P->Types, *Col,
       defaultVmOptions(Strategy, GcStress));
  R.Run = M.run();
  return R;
}
