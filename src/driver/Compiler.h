//===- driver/Compiler.h - One-stop compilation facade ----------*- C++ -*-===//
///
/// \file
/// The public entry point of the library:
///
///   tfgc::Compiler C;
///   auto P = C.compile(Source);                       // MiniML -> IR + GC metadata
///   tfgc::Stats St;
///   auto Col = P->makeCollector(GcStrategy::CompiledTagFree,
///                               GcAlgorithm::Copying, 1 << 20, St);
///   tfgc::Vm Vm(P->Prog, P->Image, *P->Types, *Col,
///               tfgc::defaultVmOptions(GcStrategy::CompiledTagFree));
///   tfgc::RunResult R = Vm.run();
///
/// One compilation produces the metadata for *every* strategy (tagged
/// needs none; compiled/interpreted/Appel each get their own tables), so
/// experiments run the same program under all of them.
///
/// That bare run attaches nothing. driver/Session.h assembles a complete
/// run — collector, runtime, and every observability attachment — from
/// one CliOptions, the way tfgc does.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_DRIVER_COMPILER_H
#define TFGC_DRIVER_COMPILER_H

#include "analysis/GcPoints.h"
#include "analysis/Reconstruct.h"
#include "core/AppelCollector.h"
#include "core/GoldbergCollector.h"
#include "core/TaggedCollector.h"
#include "gcmeta/AppelMeta.h"
#include "gcmeta/CodeImage.h"
#include "gcmeta/CompiledRoutines.h"
#include "gcmeta/InterpretedMeta.h"
#include "ir/Ir.h"
#include "ir/Monomorphise.h"
#include "vm/Vm.h"

#include <memory>
#include <optional>
#include <string>

namespace tfgc {

struct CompileOptions {
  /// Trace only live slots (paper section 5.2); off = all initialized.
  bool UseLiveness = true;
  /// Omit gc_words at sites that cannot trigger GC (section 5.1).
  bool UseGcPointAnalysis = true;
  /// Reject polymorphic programs (section 2's monomorphic setting).
  bool RequireMonomorphic = false;
  /// Compile for the tasking runtime: keep a gc_word at every call site
  /// (tasks may suspend anywhere) and trace outgoing call arguments (a
  /// suspended call re-executes after the collection). Implies
  /// UseGcPointAnalysis = false.
  bool TaskingSafe = false;
  /// Specialize every polymorphic function at its ground instantiations
  /// before emitting GC metadata — the code-growth alternative to the
  /// paper's section 3 (see ir/Monomorphise.h). Also makes
  /// non-reconstructible closures collectible.
  bool Monomorphise = false;
  /// Goldberg & Gloger '92: instead of rejecting closures whose type
  /// parameters cannot be reconstructed from their function type, bind
  /// the missing parameters to a dummy (const) type-GC routine at
  /// collection time — sound because a value whose type cannot be
  /// reconstructed can never be inspected afterwards.
  bool GlogerDummies = false;
};

struct CompiledProgram {
  std::unique_ptr<TypeContext> Types;
  IrProgram Prog;
  CodeImage Image;
  ReconstructResult Recon;
  CompiledMetadata Compiled;
  std::unique_ptr<InterpretedMetadata> Interp;
  std::unique_ptr<AppelMetadata> Appel;
  GcPointResult GcPoints;
  MonomorphiseResult Mono; ///< Only meaningful with Options.Monomorphise.
  CompileOptions Options;

  /// Creates a collector for \p Strategy. Returns nullptr (with \p Error
  /// set) if the program is not collectible under that strategy (e.g. a
  /// non-reconstructible lambda under a tag-free strategy).
  /// \p NurseryBytes applies to GcAlgorithm::Generational only (0 = the
  /// collector's default of HeapBytes/8).
  std::unique_ptr<Collector> makeCollector(GcStrategy Strategy,
                                           GcAlgorithm Algo, size_t HeapBytes,
                                           Stats &St,
                                           std::string *Error = nullptr,
                                           size_t NurseryBytes = 0);
};

/// VM options for a run under \p Strategy: GC stress as given, everything
/// else at its default. Frame zeroing needs no option: the VM turns it on
/// for collectors that scan uninitialized slots.
VmOptions defaultVmOptions(GcStrategy Strategy, bool GcStress = false);

class Compiler {
public:
  explicit Compiler(CompileOptions Options = {}) : Options(Options) {}

  /// Runs the full pipeline. On failure returns nullptr and fills
  /// \p ErrorOut with rendered diagnostics.
  std::unique_ptr<CompiledProgram> compile(const std::string &Source,
                                           std::string *ErrorOut = nullptr);

private:
  CompileOptions Options;
};

/// Convenience used throughout tests and benches: compile + run.
struct ExecResult {
  bool CompileOk = false;
  std::string CompileError;
  RunResult Run;
  Stats St;
};
ExecResult execProgram(const std::string &Source, GcStrategy Strategy,
                       GcAlgorithm Algo = GcAlgorithm::Copying,
                       size_t HeapBytes = 1 << 20, bool GcStress = false,
                       CompileOptions Options = {},
                       size_t NurseryBytes = 0);

} // namespace tfgc

#endif // TFGC_DRIVER_COMPILER_H
