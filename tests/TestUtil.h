//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//

#ifndef TFGC_TESTS_TESTUTIL_H
#define TFGC_TESTS_TESTUTIL_H

#include "driver/Compiler.h"
#include "driver/Session.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "ir/Lower.h"
#include "types/Infer.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

namespace tfgc::test {

inline const GcStrategy AllStrategies[] = {
    GcStrategy::Tagged,
    GcStrategy::CompiledTagFree,
    GcStrategy::InterpretedTagFree,
    GcStrategy::AppelTagFree,
};

inline const GcAlgorithm AllAlgorithms[] = {
    GcAlgorithm::Copying,
    GcAlgorithm::MarkSweep,
    GcAlgorithm::Generational,
};

/// Parses a program or fails the test.
inline std::optional<Program> parse(const std::string &Source,
                                    std::string *Err = nullptr) {
  DiagnosticEngine Diags;
  Lexer Lex(Source, Diags);
  Parser P(Lex.tokenize(), Diags);
  std::optional<Program> Ast = P.parseProgram();
  if (Err)
    *Err = Diags.render();
  return Ast;
}

/// Full front half: source -> typed AST + IR. Returns nullopt on error.
struct Compiled {
  std::unique_ptr<CompiledProgram> P;
  std::string Error;
};
inline Compiled compile(const std::string &Source, CompileOptions O = {}) {
  Compiled C;
  Compiler Comp(O);
  C.P = Comp.compile(Source, &C.Error);
  return C;
}

/// A scratch file path unique to the running test (its suite and name
/// prefix \p Name), so parallel test processes never share one.
inline std::string tmpPath(const std::string &Name) {
  const ::testing::TestInfo *T =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "tfgc_" + T->test_suite_name() + "_" +
         T->name() + "_" + Name;
}

/// The whole file at \p Path; empty when it does not exist.
inline std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

/// parseCli() that fails the test on a usage error.
inline bool parseOk(const std::vector<std::string> &Args, CliOptions &O) {
  std::string Err;
  bool HelpOnly = false;
  bool Ok = parseCli(Args, O, Err, HelpOnly);
  EXPECT_TRUE(Ok) << Err;
  EXPECT_FALSE(HelpOnly);
  return Ok;
}

/// Every counter but the wall-clock derived ones (names with "_ns"): what
/// must match bit for bit between runs that do the same work.
inline std::map<std::string, uint64_t> deterministicCounters(const Stats &St) {
  std::map<std::string, uint64_t> Out;
  for (const auto &[Name, Value] : St.all())
    if (Name.find("_ns") == std::string::npos)
      Out[Name] = Value;
  return Out;
}

/// CliOptions for a run under \p S and \p A on a \p HeapBytes heap, every
/// other option at tfgc's default.
inline CliOptions sessionOptions(GcStrategy S,
                                 GcAlgorithm A = GcAlgorithm::Copying,
                                 size_t HeapBytes = 1 << 14,
                                 size_t NurseryBytes = 0) {
  CliOptions O;
  O.Strategy = S;
  O.Algo = A;
  O.HeapBytes = HeapBytes;
  O.NurseryBytes = NurseryBytes;
  return O;
}

/// A run assembled by driver/Session, the way tfgc assembles it.
struct SessionRun {
  std::unique_ptr<CompiledProgram> P;
  std::unique_ptr<Session> S; ///< Null when compile or open failed.
  RunResult R;
  explicit operator bool() const { return S != nullptr; }
  Stats &stats() { return S->stats(); }
};

/// Compiles \p Source as \p O needs it and opens a Session over it,
/// failing the test when either step fails.
inline SessionRun openSession(const std::string &Source,
                              const CliOptions &O) {
  SessionRun Run;
  Compiled C = compile(Source, sessionCompileOptions(O));
  EXPECT_TRUE(C.P) << C.Error;
  if (!C.P)
    return Run;
  Run.P = std::move(C.P);
  Run.S = std::make_unique<Session>(*Run.P, O);
  int Rc = Run.S->open();
  EXPECT_EQ(Rc, 0) << "session failed to open under "
                   << gcStrategyName(O.Strategy);
  if (Rc != 0)
    Run.S.reset();
  return Run;
}

/// openSession, then \p BeforeRun (to add a sink), run() and finish(),
/// failing the test on a runtime error or an unwritten artifact.
inline SessionRun
runSession(const std::string &Source, const CliOptions &O,
           const std::function<void(Session &)> &BeforeRun = nullptr) {
  SessionRun Run = openSession(Source, O);
  if (!Run)
    return Run;
  if (BeforeRun)
    BeforeRun(*Run.S);
  Run.R = Run.S->run();
  EXPECT_TRUE(Run.R.Ok) << Run.R.Error << " under "
                        << gcStrategyName(O.Strategy);
  EXPECT_TRUE(Run.S->finish());
  return Run;
}

/// Runs a program under one strategy and returns its rendered value,
/// failing the test on any error.
inline std::string runValue(const std::string &Source, GcStrategy S,
                            GcAlgorithm A = GcAlgorithm::Copying,
                            size_t HeapBytes = 1 << 16,
                            bool Stress = false) {
  ExecResult R = execProgram(Source, S, A, HeapBytes, Stress);
  EXPECT_TRUE(R.CompileOk) << R.CompileError;
  EXPECT_TRUE(R.Run.Ok) << R.Run.Error << " under " << gcStrategyName(S);
  return R.Run.Value;
}

/// Runs under every strategy (stressed, small heap) and checks that all
/// agree; returns the common value.
inline std::string runAllStrategies(const std::string &Source,
                                    size_t HeapBytes = 1 << 14,
                                    bool Stress = true) {
  std::string Expected;
  for (GcStrategy S : AllStrategies) {
    std::string V =
        runValue(Source, S, GcAlgorithm::Copying, HeapBytes, Stress);
    if (Expected.empty())
      Expected = V;
    else
      EXPECT_EQ(Expected, V) << "strategy " << gcStrategyName(S);
  }
  // Mark-sweep and generational spot checks with the paper's own
  // collector.
  std::string V = runValue(Source, GcStrategy::CompiledTagFree,
                           GcAlgorithm::MarkSweep, HeapBytes, Stress);
  EXPECT_EQ(Expected, V) << "mark-sweep";
  V = runValue(Source, GcStrategy::CompiledTagFree,
               GcAlgorithm::Generational, HeapBytes, Stress);
  EXPECT_EQ(Expected, V) << "generational";
  return Expected;
}

//===----------------------------------------------------------------------===//
// Minimal recursive-descent JSON syntax checker, shared by the
// telemetry and monitor stream tests.
//===----------------------------------------------------------------------===//

class JsonChecker {
public:
  explicit JsonChecker(const std::string &S) : S(S) {}
  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == S.size();
  }

private:
  const std::string &S;
  size_t Pos = 0;

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }
  bool lit(const char *L) {
    size_t N = std::strlen(L);
    if (S.compare(Pos, N, L) != 0)
      return false;
    Pos += N;
    return true;
  }
  bool string() {
    if (Pos >= S.size() || S[Pos] != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
      }
      ++Pos;
    }
    if (Pos >= S.size())
      return false;
    ++Pos; // closing quote
    return true;
  }
  bool number() {
    size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    while (Pos < S.size() && std::isdigit((unsigned char)S[Pos]))
      ++Pos;
    if (Pos < S.size() && S[Pos] == '.') {
      ++Pos;
      while (Pos < S.size() && std::isdigit((unsigned char)S[Pos]))
        ++Pos;
    }
    if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E')) {
      ++Pos;
      if (Pos < S.size() && (S[Pos] == '+' || S[Pos] == '-'))
        ++Pos;
      while (Pos < S.size() && std::isdigit((unsigned char)S[Pos]))
        ++Pos;
    }
    return Pos > Start;
  }
  bool value() {
    skipWs();
    if (Pos >= S.size())
      return false;
    switch (S[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return lit("true");
    case 'f':
      return lit("false");
    case 'n':
      return lit("null");
    default:
      return number();
    }
  }
  bool object() {
    ++Pos; // '{'
    skipWs();
    if (Pos < S.size() && S[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':')
        return false;
      ++Pos;
      if (!value())
        return false;
      skipWs();
      if (Pos < S.size() && S[Pos] == ',') {
        ++Pos;
        continue;
      }
      break;
    }
    if (Pos >= S.size() || S[Pos] != '}')
      return false;
    ++Pos;
    return true;
  }
  bool array() {
    ++Pos; // '['
    skipWs();
    if (Pos < S.size() && S[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      if (!value())
        return false;
      skipWs();
      if (Pos < S.size() && S[Pos] == ',') {
        ++Pos;
        continue;
      }
      break;
    }
    if (Pos >= S.size() || S[Pos] != ']')
      return false;
    ++Pos;
    return true;
  }
};

inline bool validJson(const std::string &S) {
  return JsonChecker(S).valid();
}

} // namespace tfgc::test

#endif // TFGC_TESTS_TESTUTIL_H
