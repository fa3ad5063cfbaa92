//===- ppdbench/Main.cpp - Benchmark entry point ---------------------------===//
//
// Part of the PPD end-to-end benchmark.
//
//   ppdbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//            [--smoke] [--commit SHA]
//
// Runs one workload in this process and prints, as the last line of
// standard output, {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones (no dot in the name); with
// --trace 1 the per-layer ones ("<layer>.<name>") from a traced run. The
// spans and a per-layer self-time table go to DIR. Exit code 0 only when
// every answer matched its oracle.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "compiler/Compiler.h"
#include "core/ReplayService.h"
#include "pardyn/RaceDetector.h"
#include "support/Diagnostics.h"
#include "vm/Machine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <sched.h>
#include <unistd.h>

using namespace ppd;
using namespace ppdbench;

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

bool ppdbench::workloadConfig(const std::string &Name, bool Smoke,
                              WorkloadConfig &Out) {
  WorkloadConfig C;
  C.Name = Name;
  if (Name == "prep_large") {
    // Thousands of small functions over four processes, sparse sharing:
    // the front-end dominates, replay is small, races are sparse.
    C.Spec = {/*Workers=*/3, /*Helpers=*/3000, /*Rounds=*/40, /*Grain=*/150,
              /*Cells=*/4, /*Races=*/2};
    C.OverheadShare = 0.1;
    C.PrepShare = 0.5;
    C.ServeShare = 0.2;
    C.LiveShare = 0.2;
    C.Scripts = 12;
  } else if (Name == "serve_flowback") {
    // Six workers, dense shared access, many short intervals; sessions
    // cycle through scripts whose trace working set is three times the
    // replay cache, so replay, the JIT and the cache do the work.
    C.Spec = {6, 16, 80, 12, 8, 3};
    C.OverheadShare = 0.05;
    C.PrepShare = 0.1;
    C.ServeShare = 0.7;
    C.LiveShare = 0.15;
    C.Scripts = 48;
    C.MaxDepth = 24;
    C.CacheDivisor = 3;
  } else {
    return false;
  }
  if (Smoke) {
    C.Spec.Helpers = std::min(C.Spec.Helpers, 40u);
    C.Spec.Rounds = std::min(C.Spec.Rounds, 12u);
    C.Spec.Grain = std::min(C.Spec.Grain, 10u);
    C.Scripts = std::min(C.Scripts, 6u);
    C.MaxDepth = std::min(C.MaxDepth, 4u);
  }
  Out = C;
  return true;
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::metric(const std::string &Name, double Value, const char *Unit) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Metrics[Name] = {Value, Unit};
}

void Report::timing(const std::string &Name, const Samples &S, double Scale,
                    const char *Unit) {
  auto [Pct, Tail] = S.tailPercentile();
  std::printf("sample %s: n=%zu median=%.6g %s", Name.c_str(), S.size(),
              S.median() * Scale, Unit);
  if (Pct > 0)
    std::printf(" p%g=%.6g %s", Pct, Tail * Scale, Unit);
  std::printf("\n");
  metric(Name, S.median() * Scale, Unit);
}

void Report::check(bool Ok, const std::string &What) {
  Attempted.fetch_add(1);
  if (Ok)
    return;
  Failed.fetch_add(1);
  std::lock_guard<std::mutex> Lock(Mutex);
  if (FailuresShown++ < 10)
    std::fprintf(stderr, "ppdbench: FAILED: %s\n", What.c_str());
}

std::string Report::resultJson(bool PerLayer) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::ostringstream OS;
  OS.precision(17);
  OS << "{\"correct\": " << (Failed.load() == 0 ? "true" : "false")
     << ", \"attempted\": " << Attempted.load()
     << ", \"failed\": " << Failed.load() << ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, VU] : Metrics) {
    if ((Name.find('.') != std::string::npos) != PerLayer)
      continue;
    OS << (First ? "" : ", ") << "\"" << Name << "\": {\"value\": "
       << (std::isfinite(VU.first) ? VU.first : 0.0) << ", \"unit\": \""
       << VU.second << "\"}";
    First = false;
  }
  OS << "}}";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

std::unique_ptr<CompiledProgram>
ppdbench::compileOrDie(const std::string &Source, bool Instrument) {
  CompileOptions Opts;
  Opts.Instrument = Instrument;
  DiagnosticEngine Diags;
  auto Prog = Compiler::compile(Source, Opts, Diags);
  if (!Prog) {
    std::fprintf(stderr, "ppdbench: generated program does not compile:\n%s",
                 Diags.str().c_str());
    std::exit(70);
  }
  return Prog;
}

std::vector<std::string>
ppdbench::racyVariables(const CompiledProgram &Prog,
                        const std::vector<Race> &Races) {
  std::set<std::string> Names;
  for (const Race &R : Races)
    Names.insert(Prog.Symbols->var(R.Var).Name);
  return {Names.begin(), Names.end()};
}

namespace {

/// A numeric field of /proc/self/status ("VmHWM:", "Threads:").
double procStatus(const char *Field) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind(Field, 0) == 0)
      return std::strtod(Line.c_str() + std::strlen(Field), nullptr);
  return 0;
}

template <typename T> void raiseTo(std::atomic<T> &Peak, T Value) {
  T Prev = Peak.load();
  while (Prev < Value && !Peak.compare_exchange_weak(Prev, Value))
    ;
}

} // namespace

void Bench::noteLoad(unsigned Connections) {
  raiseTo(PeakLoad, unsigned(procStatus("Threads:")) + Connections);
}

namespace {

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0)
      return Line.substr(Line.find(':') + 2);
  return "unknown";
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C >= 0 && C < 0x20)
      continue;
    Out += C;
  }
  return Out;
}

/// Confines the process, and every thread it starts, to one CPU (the last
/// one it may use); returns that CPU, or -1 when it cannot. On a virtual
/// host, waking a thread on an idle vCPU costs tens of microseconds and
/// varies several-fold from run to run, which would swamp a 20 us query.
/// On one CPU a closed loop always has a runnable thread, so a request
/// costs its work plus same-CPU switches. The price: no end-to-end metric
/// can show multi-core behaviour; measureFanOut covers the pooled replay
/// path before the pin.
int pinToOneCpu() {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return -1;
  for (int Cpu = CPU_SETSIZE - 1; Cpu >= 0; --Cpu) {
    if (!CPU_ISSET(Cpu, &Allowed))
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    return sched_setaffinity(0, sizeof(One), &One) == 0 ? Cpu : -1;
  }
  return -1;
}

std::string hostJson(const std::string &Commit, int PinnedCpu) {
  std::ostringstream OS;
  OS << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"cpu\": \""
     << jsonEscape(cpuModel()) << "\", \"compiler\": \""
     << jsonEscape(PPDBENCH_COMPILER) << "\", \"build_type\": \""
     << PPDBENCH_BUILD_TYPE << "\", \"PPD_JIT\": " << PPD_JIT
     << ", \"PPD_SIMD\": " << PPD_SIMD
     << ", \"PPD_COMPUTED_GOTO\": " << PPD_COMPUTED_GOTO
     << ", \"pinned_cpu\": " << PinnedCpu << ", \"commit\": \""
     << jsonEscape(Commit) << "\"}";
  return OS.str();
}

/// Per-layer timing metrics: span name → metric, by median duration.
struct LayerTiming {
  const char *Span;
  const char *Metric;
  double Scale;
  const char *Unit;
};
const LayerTiming LayerTimings[] = {
    {"lang.parse", "lang.parse_s", 1, "s"},
    {"compiler.compile", "compiler.compile_s", 1, "s"},
    {"vm.plain", "vm.plain_s", 1, "s"},
    {"vm.logging", "vm.logging_s", 1, "s"},
    {"log.save", "log.save_s", 1, "s"},
    {"log.open", "log.open_s", 1, "s"},
    {"log.index", "log.index_s", 1, "s"},
    {"log.ppdb_write", "log.ppdb_write_s", 1, "s"},
    {"log.ppdb_read", "log.ppdb_read_s", 1, "s"},
    {"core.controller", "core.controller_s", 1, "s"},
    {"core.first_query", "core.first_query_s", 1, "s"},
    {"pardyn.graph", "pardyn.graph_s", 1, "s"},
    {"pardyn.race", "pardyn.race_s", 1, "s"},
    {"server.dispatch", "server.dispatch_us", 1e6, "us"},
    {"stream.ingest", "stream.ingest_us", 1e6, "us"},
    {"stream.tail", "stream.tail_us", 1e6, "us"},
};

/// Root spans: their median self time is the part of an end-to-end path
/// that no layer span covers.
const LayerTiming Roots[] = {
    {"path.first_answer", "bench.uncovered_first_answer_s", 1, "s"},
    {"path.session", "bench.uncovered_session_ms", 1e3, "ms"},
    {"path.stream", "bench.uncovered_stream_s", 1, "s"},
};

void reportSpans(Bench &B, const std::string &OutDir) {
  std::vector<SpanRecord> All = collectSpans();
  SpanSummary Sum = summarizeSpans(All);
  for (const LayerTiming &L : LayerTimings)
    B.Out.timing(L.Metric, Sum.Durations[L.Span], L.Scale, L.Unit);

  for (const LayerTiming &R : Roots)
    B.Out.timing(R.Metric, Sum.SelfTimes[R.Span], R.Scale, R.Unit);

  std::string Base = OutDir + "/" + B.Cfg.Name + "-seed" +
                     std::to_string(B.Seed);
  if (!writeSpans(All, Base + "-spans.jsonl"))
    std::fprintf(stderr, "ppdbench: cannot write spans to %s\n",
                 OutDir.c_str());
  std::ofstream Layers(Base + "-layers.json");
  Layers << "{\"layer_self_s\": {";
  bool First = true;
  for (const auto &[Layer, Secs] : Sum.LayerSelfSeconds) {
    Layers << (First ? "" : ", ") << "\"" << Layer << "\": " << Secs;
    std::printf("self %s: %.6f s\n", Layer.c_str(), Secs);
    First = false;
  }
  Layers << "}, \"span_self_s\": {";
  First = true;
  for (const auto &[Name, Self] : Sum.SelfTimes) {
    Layers << (First ? "" : ", ") << "\"" << Name << "\": " << Self.sum();
    First = false;
  }
  Layers << "}}\n";
}

/// The replay fan-out on every CPU, for traced runs: a cold sweep of every
/// interval of \p Log through a serial replay service and through one with
/// nproc - 1 pool workers plus the helping caller, alternating. The pooled
/// sweep must regenerate exactly the serial sweep's events.
void measureFanOut(Bench &B, const CompiledProgram &Prog,
                   const ExecutionLog &Log) {
  LogIndex Index(Log);
  std::vector<ParallelReplayer::IntervalRef> All;
  for (uint32_t P = 0; P != Index.numProcs(); ++P)
    for (uint32_t K = 0; K != Index.intervals(P).size(); ++K)
      All.push_back({P, K});
  const unsigned Workers =
      unsigned(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN) - 1));
  Samples Serial, Pooled;
  size_t SerialEvents = 0;
  for (unsigned Rep = 0; Rep != 7; ++Rep)
    for (unsigned Threads : {0u, Workers}) {
      ReplayServiceOptions Opts;
      Opts.Threads = Threads;
      ParallelReplayer Service(Prog, Log, Index, Opts);
      B.noteLoad(0);
      auto T = Clock::now();
      auto Results = Service.getMany(All);
      (Threads ? Pooled : Serial).add(secondsSince(T));
      size_t Events = 0;
      bool Ok = Results.size() == All.size();
      for (const auto &R : Results) {
        Ok = Ok && R;
        if (R)
          Events += R->Events.Events.size();
      }
      if (!Threads)
        SerialEvents = Events;
      B.Out.check(Ok && Events == SerialEvents,
                  "pooled replay sweep differs from the serial one");
    }
  B.Out.timing("core.fanout_serial_ms", Serial, 1e3, "ms");
  B.Out.timing("core.fanout_pooled_ms", Pooled, 1e3, "ms");
  B.Out.metric("core.fanout_threads", Workers + 1, "count");
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: ppdbench --workload prep_large|serve_flowback "
               "--seed N --seconds S --trace 0|1 --out DIR "
               "[--smoke] [--commit SHA]\n");
  std::exit(64);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, OutDir, Commit = "unknown";
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false, Smoke = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage();
      return Argv[++I];
    };
    if (A == "--workload")
      Workload = Next();
    else if (A == "--seed")
      Seed = std::strtoull(Next(), nullptr, 10);
    else if (A == "--seconds")
      Seconds = std::strtod(Next(), nullptr);
    else if (A == "--trace")
      Trace = std::strcmp(Next(), "0") != 0;
    else if (A == "--out")
      OutDir = Next();
    else if (A == "--commit")
      Commit = Next();
    else if (A == "--smoke")
      Smoke = true;
    else
      usage();
  }
  Bench B;
  if (OutDir.empty() || Seconds <= 0 ||
      !workloadConfig(Workload, Smoke, B.Cfg))
    usage();
  B.Seed = Seed;
  B.Traced = Trace;
  B.WorkDir = OutDir + "/work-" + Workload + "-" + std::to_string(getpid());
  std::error_code Ec;
  std::filesystem::create_directories(B.WorkDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "ppdbench: cannot create %s\n", B.WorkDir.c_str());
    return 1;
  }
  PrepPath Prep(B);
  ServePath Serve(B);
  LivePath Live(B, Serve);

  // Oracles first, untimed, from an independent compile and logged run.
  {
    B.Gen = generateProgram(B.Cfg.Spec, B.Seed);
    auto Prog = compileOrDie(B.Gen.Source, true);
    MachineOptions MOpts;
    MOpts.Seed = ScheduleSeed;
    Machine M(*Prog, MOpts);
    RunResult R = M.run();
    B.Out.check(R.Outcome == RunResult::Status::Completed,
                "oracle run did not complete");
    Prep.buildOracle(*Prog, M.log());
    Serve.buildOracle(*Prog, M.log());
    Live.buildOracle(*Prog, M.log());
    if (Trace)
      measureFanOut(B, *Prog, M.log());
  }
  // Pinned only now, so the fan-out above could use every CPU.
  int PinnedCpu = pinToOneCpu();
  std::printf("host %s\n", hostJson(Commit, PinnedCpu).c_str());

  // The run is cut into slices that each give every phase its share, so
  // each metric samples the whole run window: a spell of some seconds in
  // which the host runs faster or slower moves all of them alike, and
  // moves a run's medians only when it covers much of the run. Every fourth
  // slice starts with a fresh set-up: generation, compiles, server start
  // and warm-up; setup_s is their median.
  const unsigned Slices = 20, SetupEvery = 4;
  const double Slice = Seconds / Slices;
  Samples Setup;
  for (unsigned I = 0; I != Slices; ++I) {
    if (I % SetupEvery == 0) {
      Serve.stop();
      auto T0 = Clock::now();
      B.Gen = generateProgram(B.Cfg.Spec, B.Seed);
      Prep.setup();
      Live.setup();
      Serve.start(compileOrDie(B.Gen.Source, true));
      Serve.warmUp();
      Setup.add(secondsSince(T0));
    }
    TracingOn = Trace;
    Prep.runOverhead(Slice * B.Cfg.OverheadShare);
    Prep.run(Slice * B.Cfg.PrepShare);
    Serve.run(Slice * B.Cfg.ServeShare);
    Live.run(Slice * B.Cfg.LiveShare);
    TracingOn = false;
  }
  Serve.stop();

  B.Out.timing("setup_s", Setup, 1, "s");
  B.Out.metric("peak_rss_mb", procStatus("VmHWM:") / 1024.0, "MB");
  long Cpus = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("load: at most %u threads and client connections together, "
              "nproc %ld\n",
              B.PeakLoad.load(), Cpus);
  B.Out.check(B.PeakLoad <= Cpus,
              "more threads and connections together than nproc");
  Prep.report();
  Serve.report();
  Live.report();
  B.Out.metric("bench.error_frac",
               B.Out.attempted() ? double(B.Out.failed()) /
                                       double(B.Out.attempted())
                                 : 1.0,
               "ratio");
  if (Trace)
    reportSpans(B, OutDir);
  std::filesystem::remove_all(B.WorkDir, Ec);

  std::string Result = B.Out.resultJson(Trace);
  std::printf("%s\n", Result.c_str());
  std::fflush(stdout);
  return B.Out.failed() == 0 ? 0 : 1;
}
