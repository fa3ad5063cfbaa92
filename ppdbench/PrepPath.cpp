//===- ppdbench/PrepPath.cpp - Post-mortem first answer --------------------===//
//
// Part of the PPD end-to-end benchmark.
//
// One rep is what a user pays from source text to the first flowback
// answer: `ppd compile` + `ppd run --log` (which also writes the .ppdb
// sidecar) + `ppd debug --log` up to the answers of `where` and `back`,
// then the race verdict. The debugger half alone is reopen_answer_s.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "compiler/Compiler.h"
#include "core/Controller.h"
#include "core/DebugSession.h"
#include "lang/Parser.h"
#include "log/BufferPool.h"
#include "log/PageStore.h"
#include "log/ProgramDb.h"
#include "pardyn/ParallelDynamicGraph.h"
#include "support/Diagnostics.h"
#include "vm/Machine.h"

#include <cstdio>

using namespace ppd;
using namespace ppdbench;

namespace {

std::vector<int64_t> outputValues(const std::vector<OutputRecord> &Out) {
  std::vector<int64_t> Values;
  for (const OutputRecord &O : Out)
    Values.push_back(O.Value);
  return Values;
}

/// Parse and compile as two timed layer calls.
std::unique_ptr<CompiledProgram> compileTraced(const std::string &Source,
                                               uint64_t Rep,
                                               size_t *AstStmts = nullptr) {
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Ast;
  {
    Span S("lang.parse", Rep);
    Ast = Parser::parse(Source, Diags);
  }
  if (!Ast)
    return nullptr;
  if (AstStmts)
    *AstStmts = Ast->numStmts();
  Span S("compiler.compile", Rep);
  return Compiler::compile(std::move(Ast), CompileOptions(), Diags);
}

} // namespace

void PrepPath::setup() {
  PlainProg = compileOrDie(B.Gen.Source, /*Instrument=*/false);
  LoggedProg = compileOrDie(B.Gen.Source, /*Instrument=*/true);
}

void PrepPath::buildOracle(const CompiledProgram &Prog,
                           const ExecutionLog &Log) {
  // Plain output of the uninstrumented program: the logged run must
  // print exactly this.
  auto Plain = compileOrDie(B.Gen.Source, false);
  MachineOptions MOpts;
  MOpts.Mode = RunMode::Plain;
  MOpts.Seed = ScheduleSeed;
  Machine M(*Plain, MOpts);
  B.Out.check(M.run().Outcome == RunResult::Status::Completed,
              "plain run did not complete");
  ExpectedOutput = outputValues(M.output());
  B.Out.check(outputValues(Log.Output) == ExpectedOutput,
              "logged output differs from plain output");

  PpdController Ctrl(Prog, Log);
  DebugSession Session(Prog, Ctrl);
  ExpectedWhere = Session.execute("where " + std::to_string(focusPid(B)));
  ExpectedBack = Session.execute("back");
  B.Out.check(racyVariables(Prog, Ctrl.detectRaces().Races) ==
                  B.Gen.PlantedRaces,
              "in-memory race verdict differs from the planted races");
}

void PrepPath::runOverhead(double Seconds) {
  MachineOptions Plain, Logged;
  Plain.Mode = RunMode::Plain;
  Plain.Seed = Logged.Seed = ScheduleSeed;
  auto RunOnce = [&](const CompiledProgram &Prog, const MachineOptions &O,
                     const char *Name, uint64_t Rep) {
    auto T0 = Clock::now();
    Span S(Name, Rep);
    Machine M(Prog, O);
    RunResult R = M.run();
    S.stop();
    double Secs = secondsSince(T0);
    B.Out.check(R.Outcome == RunResult::Status::Completed &&
                    outputValues(M.output()) == ExpectedOutput,
                std::string(Name) + " run output differs from the oracle");
    return Secs;
  };
  auto T0 = Clock::now();
  do {
    // Alternate the order so neither side always runs on a warm cache.
    uint64_t Rep = NextPair++;
    double P, L;
    if (Rep % 2) {
      L = RunOnce(*LoggedProg, Logged, "vm.logging", Rep);
      P = RunOnce(*PlainProg, Plain, "vm.plain", Rep);
    } else {
      P = RunOnce(*PlainProg, Plain, "vm.plain", Rep);
      L = RunOnce(*LoggedProg, Logged, "vm.logging", Rep);
    }
    Overhead.add(L / P);
  } while (secondsSince(T0) < Seconds);
}

void PrepPath::rep(uint64_t Rep) {
  const std::string LogPath = B.WorkDir + "/prep.ppdlog";
  const std::string DbPath = programDbPathFor(LogPath);
  std::remove(LogPath.c_str());
  std::remove(DbPath.c_str());
  const std::string Pid = std::to_string(focusPid(B));

  // ppd compile + ppd run --log.
  auto T0 = Clock::now();
  Span Root("path.first_answer", Rep);
  size_t AstStmts = 0;
  auto Prog = compileTraced(B.Gen.Source, Rep, &AstStmts);
  if (!Prog)
    return B.Out.check(false, "prep compile failed");
  MachineOptions MOpts;
  MOpts.Seed = ScheduleSeed;
  Machine M(*Prog, MOpts);
  RunResult Run;
  {
    Span S("vm.logging", Rep);
    Run = M.run();
  }
  bool Saved;
  {
    Span S("log.save", Rep);
    Saved = M.log().save(LogPath, LogFormat::V2);
  }
  std::string Error;
  std::shared_ptr<const PageStore> Store;
  {
    Span S("log.open", Rep);
    Store = Saved ? PageStore::open(LogPath, &Error) : nullptr;
  }
  if (!Store)
    return B.Out.check(false, "cannot save and reopen the log: " + Error);
  std::unique_ptr<LogIndex> Index;
  {
    Span S("log.index", Rep);
    Index = std::make_unique<LogIndex>(*Store);
  }
  std::unique_ptr<ParallelDynamicGraph> Graph;
  {
    Span S("pardyn.graph", Rep);
    Graph = std::make_unique<ParallelDynamicGraph>(
        M.log(), Prog->Symbols->NumSharedVars);
  }
  bool DbWritten;
  {
    Span S("log.ppdb_write", Rep);
    DbWritten = writeProgramDb(DbPath, *Prog, *Store, *Index, Graph.get());
  }

  // ppd debug --log: a fresh debugger compiles again, opens the log paged
  // and adopts the warm .ppdb.
  auto T1 = Clock::now();
  Span DebugHalf("path.reopen", Rep);
  auto DbgProg = compileTraced(B.Gen.Source, Rep);
  std::shared_ptr<const PageStore> DbgStore;
  {
    Span S("log.open", Rep);
    DbgStore = PageStore::open(LogPath, &Error);
  }
  if (!DbgProg || !DbgStore)
    return B.Out.check(false, "debugger cannot reopen the log: " + Error);
  std::shared_ptr<const LogIndex> DbgIndex;
  std::shared_ptr<const ParallelDynamicGraph> DbgGraph;
  ProgramDbStatus DbStatus;
  {
    Span S("log.ppdb_read", Rep);
    DbStatus = readProgramDb(DbPath, *DbgProg, *DbgStore, DbgIndex, &DbgGraph);
  }
  PpdControllerOptions COpts;
  COpts.AdoptedGraph = DbgGraph;
  std::unique_ptr<PpdController> Ctrl;
  {
    Span S("core.controller", Rep);
    Ctrl = std::make_unique<PpdController>(
        *DbgProg,
        PagedLog{DbgStore, std::make_shared<BufferPool>(size_t(256) << 20)},
        DbgIndex, COpts);
  }
  DebugSession Session(*DbgProg, *Ctrl);
  std::string Where, Back;
  {
    Span S("core.first_query", Rep);
    Where = Session.execute("where " + Pid);
  }
  {
    Span S("core.query", Rep);
    Back = Session.execute("back");
  }
  auto T2 = Clock::now();
  DebugHalf.stop();
  Root.stop();

  RaceDetectionResult Races;
  {
    auto T3 = Clock::now();
    Span S("pardyn.race", Rep);
    Races = Ctrl->detectRaces();
    RacesMs.add(secondsSince(T3) * 1e3);
  }
  FirstAnswer.add(std::chrono::duration<double>(T2 - T0).count());
  Reopen.add(std::chrono::duration<double>(T2 - T1).count());

  // Oracles, outside the timed region.
  B.Out.check(Run.Outcome == RunResult::Status::Completed &&
                  outputValues(M.output()) == ExpectedOutput,
              "prep logged run output differs from the plain run");
  B.Out.check(DbWritten && DbStatus == ProgramDbStatus::Ok,
              std::string("sidecar not warm on reopen: ") +
                  programDbStatusName(DbStatus));
  B.Out.check(Where == ExpectedWhere,
              "paged 'where' answer differs from the in-memory session");
  B.Out.check(Back == ExpectedBack,
              "paged 'back' answer differs from the in-memory session");
  B.Out.check(racyVariables(*DbgProg, Races.Races) == B.Gen.PlantedRaces,
              "paged race verdict differs from the planted races");

  uint64_t Records = 0;
  for (const ProcessLog &P : M.log().Procs)
    Records += P.Records.size();
  ReplayServiceStats RS = Ctrl->replayService().stats();
  Counts = {
      {"lang.ast_stmts", double(AstStmts)},
      {"compiler.funcs", double(Prog->Funcs.size())},
      {"compiler.vars", double(Prog->Symbols->numVars())},
      {"compiler.eblocks", double(Prog->EBlocks.size())},
      {"compiler.units", double(Prog->Units.size())},
      {"vm.steps", double(Run.Steps)},
      {"vm.log_records", double(Records)},
      {"vm.log_bytes", double(M.log().byteSize())},
      {"log.file_bytes", double(Store->fileBytes())},
      {"log.sections_faulted", double(RS.Buffer.Misses)},
      {"log.pool_peak_bytes", double(RS.Buffer.PeakBytes)},
      {"core.replays", double(Ctrl->stats().Replays)},
      {"core.replay_instructions", double(Ctrl->stats().ReplayInstructions)},
      {"core.events_traced", double(Ctrl->stats().EventsTraced)},
      {"pardyn.pairs_examined", double(Races.PairsExamined)},
      {"pardyn.races", double(Races.Races.size())},
  };
  ClosureMs.add(double(Races.ClosureBuildNs) * 1e-6);
}

void PrepPath::run(double Seconds) {
  // In a traced run every other rep runs untraced; the difference of the
  // two medians is the tracing overhead on this path.
  const bool Traced = TracingOn;
  auto T0 = Clock::now();
  do {
    uint64_t Rep = NextRep++;
    TracingOn = Traced && Rep % 2 == 0;
    size_t Before = FirstAnswer.size();
    rep(Rep);
    if (FirstAnswer.size() != Before)
      (TracingOn ? TracedOn : TracedOff).add(FirstAnswer.last());
  } while (secondsSince(T0) < Seconds);
  TracingOn = Traced;
}

void PrepPath::report() {
  Report &R = B.Out;
  R.timing("first_answer_s", FirstAnswer, 1, "s");
  R.timing("reopen_answer_s", Reopen, 1, "s");
  R.timing("races_ms", RacesMs, 1, "ms");
  R.timing("logging_overhead", Overhead, 1, "ratio");
  std::printf("E1 logged/plain VM time %.4f (paper bound 1.15: %s)\n",
              Overhead.median(), Overhead.median() <= 1.15 ? "met" : "missed");
  for (const auto &[Name, Value] : Counts)
    R.metric(Name, Value, Name.find("bytes") != std::string::npos ? "bytes"
                                                                  : "count");
  R.timing("pardyn.closure_build_ms", ClosureMs, 1, "ms");
  R.metric("bench.trace_overhead_ms",
           (TracedOn.median() - TracedOff.median()) * 1e3, "ms");
}
