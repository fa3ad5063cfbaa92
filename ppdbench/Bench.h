//===- ppdbench/Bench.h - Workloads, report, and the three paths -*- C++ -*-===//
//
// Part of the PPD end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every workload runs PPD's three user paths on its own generated program,
/// each for a share of the measured time:
///
///   * PrepPath  — compile, logged run, save log and .ppdb, a fresh paged
///                 debugger, first where/back answers, race verdict; plus
///                 the paper's E1 logging overhead (logged / plain VM time);
///   * ServePath — an in-process epoll server on a unix socket serving the
///                 saved log paged with its .ppdb to a closed-loop client;
///   * LivePath  — a tracer streaming consistent cuts to that server while
///                 a monitor connection asks one tail query per cut.
///
/// The workload decides the program's shape and how the time is split, so
/// each one stresses different layers (see README.md).
///
//===----------------------------------------------------------------------===//

#ifndef PPDBENCH_BENCH_H
#define PPDBENCH_BENCH_H

#include "Gen.h"
#include "Spans.h"

#include "compiler/CompiledProgram.h"
#include "log/ExecutionLog.h"
#include "pardyn/RaceDetector.h"
#include "server/Protocol.h"

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ppd {
class ClientConnection;
class DebugServer;
namespace stream {
class IngestRegistry;
}
} // namespace ppd

namespace ppdbench {

struct WorkloadConfig {
  std::string Name;
  GenSpec Spec;
  /// Shares of --seconds spent in each phase.
  double OverheadShare = 0.25;
  double PrepShare = 0.25;
  double ServeShare = 0.25;
  double LiveShare = 0.25;
  /// Distinct session scripts, cycled through round-robin.
  unsigned Scripts = 12;
  /// Back-steps a script may walk along the worker's step() chain.
  unsigned MaxDepth = 8;
  /// The shared replay cache gets the scripts' trace working set divided
  /// by this (1 = everything fits).
  unsigned CacheDivisor = 1;
};

/// Workload by name; \p Smoke selects a tiny size. False when unknown.
bool workloadConfig(const std::string &Name, bool Smoke, WorkloadConfig &Out);

/// Metric sink and correctness tally. Thread-safe.
class Report {
public:
  void metric(const std::string &Name, double Value, const char *Unit);
  /// Records the median of \p S (times \p Scale) as \p Name and prints
  /// the sample count and tail percentile as a detail line.
  void timing(const std::string &Name, const Samples &S, double Scale,
              const char *Unit);
  /// One attempted operation; a false \p Ok counts as failed.
  void check(bool Ok, const std::string &What);
  uint64_t attempted() const { return Attempted.load(); }
  uint64_t failed() const { return Failed.load(); }
  /// The final result line, with the per-layer metrics ("<layer>.<name>")
  /// when \p PerLayer and the end-to-end ones otherwise.
  std::string resultJson(bool PerLayer) const;

private:
  mutable std::mutex Mutex;
  std::map<std::string, std::pair<double, std::string>> Metrics;
  std::atomic<uint64_t> Attempted{0};
  std::atomic<uint64_t> Failed{0};
  unsigned FailuresShown = 0;
};

/// Shared state of one benchmark process.
struct Bench {
  WorkloadConfig Cfg;
  uint64_t Seed = 1;
  bool Traced = false; ///< --trace 1.
  std::string WorkDir; ///< working files (log, sidecar, socket).
  GenProgram Gen;
  Report Out;
  /// The most threads plus open client connections seen at once.
  std::atomic<unsigned> PeakLoad{0};

  /// Samples this process's thread count while \p Connections client
  /// connections are open. Every thread a run has comes from the
  /// benchmark itself (the server runs requests inline and replays
  /// serially), so a phase calls this once all of its threads and
  /// connections are up.
  void noteLoad(unsigned Connections);
};

/// The VM's scheduler seed, the same for every --seed: the generated
/// programs run the same instruction counts whatever their constants, so
/// every seed gets the same interleaving and the same streamed cuts.
inline constexpr uint64_t ScheduleSeed = 1;

/// Compiles \p Source; aborts the benchmark on a compile error (the
/// generator's bug, not the program's).
std::unique_ptr<ppd::CompiledProgram> compileOrDie(const std::string &Source,
                                                   bool Instrument);

/// The per-process debugging start the paths query: the last worker.
inline unsigned focusPid(const Bench &B) { return B.Cfg.Spec.Workers; }

/// Names of the variables in \p Races, sorted and deduplicated.
std::vector<std::string> racyVariables(const ppd::CompiledProgram &Prog,
                                       const std::vector<ppd::Race> &Races);

/// Compile → logged run → save → paged debugger → first answers → races.
class PrepPath {
public:
  explicit PrepPath(Bench &B) : B(B) {}
  /// Compiles the uninstrumented copy E1 compares against.
  void setup();
  /// Expected answers from an in-memory session; plain vs logged output.
  void buildOracle(const ppd::CompiledProgram &Prog,
                   const ppd::ExecutionLog &Log);
  void runOverhead(double Seconds);
  void run(double Seconds);
  void report();

private:
  void rep(uint64_t Rep);

  Bench &B;
  std::unique_ptr<ppd::CompiledProgram> PlainProg, LoggedProg;
  std::vector<int64_t> ExpectedOutput;
  std::string ExpectedWhere, ExpectedBack;
  Samples FirstAnswer, Reopen, RacesMs, Overhead, ClosureMs;
  /// First-answer times of traced and untraced reps in a traced run.
  Samples TracedOn, TracedOff;
  uint64_t NextRep = 0, NextPair = 0;
  // Counters of the last rep (they repeat exactly across reps).
  std::map<std::string, double> Counts;
};

/// One step of a session script with the answer a serial in-process
/// DebugSession gave for it.
struct ScriptStep {
  ppd::MsgType Type = ppd::MsgType::Query;
  std::string Command;
  std::string Expected;
};
using Script = std::vector<ScriptStep>;

/// The `ppd serve --log` shape, plus the stream hook the live path uses.
class ServePath {
public:
  explicit ServePath(Bench &B);
  ~ServePath();
  /// Session scripts and their expected answers; sizes the replay cache
  /// against the scripts' trace working set.
  void buildOracle(const ppd::CompiledProgram &Prog,
                   const ppd::ExecutionLog &Log);
  /// Logged run, save log + .ppdb, open paged, start the epoll server.
  void start(std::unique_ptr<ppd::CompiledProgram> Prog);
  /// Adds the server's counters to the run's, shuts it down and joins its
  /// thread.
  void stop();
  /// Runs every script once over the socket.
  void warmUp();
  void run(double Seconds);
  void report();

  const std::string &socketPath() const { return SocketPath; }
  ppd::DebugServer &server() { return *Server; }

  /// Routes stream frames to \p Ingest (null: NoSuchStream). \p Observe
  /// sees every stream request and its response.
  using StreamObserver =
      std::function<void(const ppd::Request &, const ppd::Response &)>;
  void setIngest(std::shared_ptr<ppd::stream::IngestRegistry> Ingest,
                 StreamObserver Observe);

private:
  struct ClientSamples {
    Samples Open, Queries, Races;
  };
  /// Runs \p S over \p Conn; \p Rtts gets every request's round trip.
  bool runScript(ppd::ClientConnection &Conn, const Script &S, uint64_t Rep,
                 ClientSamples &Out, std::vector<double> &Rtts);
  /// Runs \p S through the twin's DebugServer::handleFrame, without the
  /// transport; returns every request's dispatch time.
  std::vector<double> dispatchInProcess(const Script &S, uint64_t Rep);

  Bench &B;
  std::unique_ptr<ppd::DebugServer> Server;
  /// Traced runs: an in-process twin of Server that gets the same sessions.
  std::unique_ptr<ppd::DebugServer> Shadow;
  std::thread Loop;
  std::string SocketPath;
  size_t CacheBudget = 0, WorkingSet = 0;

  std::mutex HookMutex;
  std::shared_ptr<ppd::stream::IngestRegistry> Ingest;
  StreamObserver Observe;

  std::vector<Script> Scripts;
  uint64_t NextScript = 0;
  /// Session opens and races over the run; query round trips by slice.
  ClientSamples All;
  std::vector<Samples> QueriesBySlice;
  Samples Transport; ///< traced runs: round trip minus dispatch.
  Samples Rates; ///< queries and races answered per second, by slice.
  /// Server counters, summed over every server the run started.
  std::map<std::string, double> Counts;
};

/// The `ppd run --stream` shape with a tail-query monitor.
class LivePath {
public:
  LivePath(Bench &B, ServePath &Server) : B(B), Server(Server) {}
  void setup();
  void buildOracle(const ppd::CompiledProgram &Prog,
                   const ppd::ExecutionLog &Log);
  void run(double Seconds);
  void report();

private:
  void stream(uint64_t Rep);

  Bench &B;
  ServePath &Server;
  std::unique_ptr<ppd::CompiledProgram> TracerProg;
  std::string TailCommand, ExpectedFinal;
  Samples IngestRate, StallSeconds, SealSeconds;
  std::vector<Samples> TailBySlice;
  uint64_t NextRep = 0;
  std::map<std::string, double> Counts;
};

} // namespace ppdbench

#endif // PPDBENCH_BENCH_H
