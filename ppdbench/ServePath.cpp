//===- ppdbench/ServePath.cpp - Served flowback sessions -------------------===//
//
// Part of the PPD end-to-end benchmark.
//
// The `ppd serve --log` shape: the saved v2 log is opened paged with its
// warm .ppdb and served by the epoll transport on a unix socket, with the
// server's defaults: requests run inline on its epoll thread. One
// closed-loop client cycles open → scripted walk → races → close. The
// scripts come from a serial in-process DebugSession over the in-memory
// log, and every socket answer must be byte-equal to the one it gave.
//
// One client keeps the latencies repeatable. With two, a request's time
// mixes its own work with waiting behind the other client's heavy
// requests, and the median moved by a third from run to run; with more
// than one and requests inline, the loop keeps reading from a client that
// answers fast enough while the others wait for hundreds of milliseconds.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Controller.h"
#include "core/DebugSession.h"
#include "log/PageStore.h"
#include "log/ProgramDb.h"
#include "server/DebugServer.h"
#include "server/Transport.h"
#include "server/Wire.h"
#include "stream/Ingest.h"
#include "trace/ReplayCache.h"
#include "vm/Machine.h"

#include <algorithm>
#include <cstdio>

using namespace ppd;
using namespace ppdbench;

namespace {

/// Builds one script by walking a fresh in-process session: from the
/// last event of \p Pid back along the worker's step() chain \p Depth
/// times, into that call (expand), then across processes through the
/// shared cells, forward once, and the race verdict. A move uses `back`
/// when DebugSession would pick the intended node, `node N` otherwise.
Script walkScript(const CompiledProgram &Prog, PpdController &Ctrl,
                  DebugSession &Session, unsigned Pid, unsigned Depth) {
  Script Out;
  auto Exec = [&](MsgType Type, const std::string &Cmd) {
    Out.push_back({Type, Cmd, Session.execute(Cmd)});
  };
  auto Deps = [&] { return Ctrl.dependencesOf(Session.current()); };
  auto MoveTo = [&](DynNodeId Target) {
    DynNodeId BackPick = InvalidId;
    for (const DynEdge &E : Deps())
      if ((E.Kind == DynEdgeKind::Data || E.Kind == DynEdgeKind::CrossData) &&
          Ctrl.graph().node(E.From).Kind != DynNodeKind::Entry) {
        BackPick = E.From;
        break;
      }
    if (BackPick == Target)
      Exec(MsgType::Step, "back");
    else
      Exec(MsgType::Query, "node " + std::to_string(Target));
  };

  Exec(MsgType::Query, "where " + std::to_string(Pid));
  for (unsigned D = 0; D != Depth; ++D) {
    DynNodeId Target = InvalidId;
    for (const DynEdge &E : Deps())
      if (E.Kind == DynEdgeKind::Data && E.Var != InvalidId &&
          Prog.Symbols->var(E.Var).Name == "acc" &&
          Ctrl.graph().node(E.From).Label.rfind("acc = step", 0) == 0)
        Target = E.From;
    if (Target == InvalidId)
      break;
    MoveTo(Target);
  }

  DynNodeId Call = InvalidId;
  for (const DynEdge &E : Deps()) {
    const DynNode &N = Ctrl.graph().node(E.From);
    if (N.Kind == DynNodeKind::SubGraph && !N.Expanded)
      Call = E.From;
  }
  if (Call != InvalidId) {
    unsigned Before = Ctrl.graph().numNodes();
    Exec(MsgType::Query, "expand " + std::to_string(Call));
    for (DynNodeId Id = Before; Id < Ctrl.graph().numNodes(); ++Id)
      if (Ctrl.graph().node(Id).Label.rfind("cells[", 0) == 0) {
        Exec(MsgType::Query, "node " + std::to_string(Id));
        break;
      }
    for (unsigned Hop = 0; Hop != 2; ++Hop) {
      DynNodeId Producer = InvalidId;
      for (const DynEdge &E : Deps())
        if (E.Kind == DynEdgeKind::CrossData) {
          Producer = E.From;
          break;
        }
      if (Producer == InvalidId)
        break;
      MoveTo(Producer);
    }
  }
  Exec(MsgType::Step, "fwd");
  Out.push_back({MsgType::Races, "races", Session.execute("races")});
  return Out;
}

Request requestFor(const ScriptStep &Step, uint64_t SessionId) {
  Request Req;
  Req.Type = Step.Type;
  Req.SessionId = SessionId;
  if (Step.Type == MsgType::Query)
    Req.Command = Step.Command;
  else if (Step.Type == MsgType::Step)
    Req.Direction = Step.Command == "back" ? 0 : 1;
  return Req;
}

std::string answerText(bool Ok, const Response &Resp) {
  if (!Ok)
    return "<transport failure>";
  if (Resp.Type != RespType::Result)
    return "<response type " + std::to_string(int(Resp.Type)) + ": " +
           Resp.Text + ">";
  return Resp.Text;
}

} // namespace

ServePath::ServePath(Bench &B) : B(B) {}

ServePath::~ServePath() { stop(); }

void ServePath::buildOracle(const CompiledProgram &Prog,
                            const ExecutionLog &Log) {
  const GenSpec &Spec = B.Cfg.Spec;
  // The scripts' sessions share one unbounded cache, as the server's
  // sessions share theirs, so its bytes are the trace working set in the
  // cache's own accounting.
  SessionRegistryOptions Defaults;
  PpdControllerOptions COpts;
  COpts.Service.SharedCache =
      std::make_shared<ReplayCache<ReplayResult>>(0, Defaults.CacheShards);
  COpts.Service.SharedFlights = std::make_shared<ReplayFlightTable>();
  for (unsigned I = 0; I != B.Cfg.Scripts; ++I) {
    PpdController Ctrl(Prog, Log, COpts);
    DebugSession Session(Prog, Ctrl);
    // Successive scripts start in different processes and walk to
    // different rounds, so they replay different intervals.
    unsigned Pid = 1 + I % Spec.Workers;
    unsigned Depth = 1 + (I * 7 + I / Spec.Workers) % B.Cfg.MaxDepth;
    Scripts.push_back(walkScript(Prog, Ctrl, Session, Pid, Depth));
  }
  WorkingSet = COpts.Service.SharedCache->stats().Bytes;
  // 0 would mean "unbounded" to the cache.
  CacheBudget = B.Cfg.CacheDivisor > 1
                    ? std::max<size_t>(WorkingSet / B.Cfg.CacheDivisor, 1)
                    : Defaults.CacheBytes;
}

void ServePath::start(std::unique_ptr<CompiledProgram> Prog) {
  // ppd run --log: logged run, v2 log, .ppdb sidecar.
  const std::string LogPath = B.WorkDir + "/serve.ppdlog";
  const std::string DbPath = programDbPathFor(LogPath);
  MachineOptions MOpts;
  MOpts.Seed = ScheduleSeed;
  Machine M(*Prog, MOpts);
  B.Out.check(M.run().Outcome == RunResult::Status::Completed &&
                  M.log().save(LogPath, LogFormat::V2),
              "serve: logged run or save failed");
  std::string Error;
  auto Store = PageStore::open(LogPath, &Error);
  B.Out.check(Store && writeProgramDb(DbPath, *Prog, *Store, LogIndex(*Store)),
              "serve: cannot write the sidecar: " + Error);

  // ppd serve --log: reopen paged and adopt the warm sidecar.
  std::shared_ptr<const LogIndex> Index;
  std::shared_ptr<const ParallelDynamicGraph> Graph;
  Store = PageStore::open(LogPath, &Error);
  B.Out.check(Store && readProgramDb(DbPath, *Prog, *Store, Index, &Graph) ==
                           ProgramDbStatus::Ok,
              "serve: sidecar not warm");
  DebugServerOptions SOpts;
  SOpts.Registry.CacheBytes = CacheBudget;
  if (B.Traced) {
    // The traced run's in-process twin: the same program, log, sidecar
    // and cache budget, with a cache and JIT of its own. It gets the same
    // sessions in the same order as the socket server, so each frame
    // meets the cache state it met there, and the socket server's
    // counters see only the socket traffic.
    Shadow = std::make_unique<DebugServer>(SOpts);
    Shadow->addProgram(compileOrDie(B.Gen.Source, true),
                       PagedLog{Store, nullptr}, Index, Graph);
  }
  Server = std::make_unique<DebugServer>(SOpts);
  Server->addProgram(std::move(Prog), PagedLog{std::move(Store), nullptr},
                     std::move(Index), std::move(Graph));
  Server->setStreamDispatcher([this](const Request &Req) {
    // Held across the call, so setIngest() never drops a registry, or the
    // stream state its observer updates, while a frame is in dispatch.
    std::lock_guard<std::mutex> Lock(HookMutex);
    if (!Ingest) {
      Response Resp;
      Resp.Code = ErrCode::NoSuchStream;
      return Resp;
    }
    Span S(Req.Type == MsgType::TailQuery ? "stream.tail" : "stream.ingest",
           Req.StreamId);
    Response Resp = Ingest->dispatch(Req);
    S.stop();
    if (Observe)
      Observe(Req, Resp);
    return Resp;
  });

  SocketPath = B.WorkDir + "/ppd.sock";
  EpollServerOptions EOpts;
  EOpts.UnixListenFd = listenUnix(SocketPath);
  EOpts.UnixPath = SocketPath;
  if (EOpts.UnixListenFd < 0) {
    std::fprintf(stderr, "ppdbench: cannot listen on %s\n",
                 SocketPath.c_str());
    std::exit(71);
  }
  Loop = std::thread([this, EOpts] { runEpollServer(*Server, EOpts); });
}

void ServePath::stop() {
  if (!Server)
    return;
  ReplayServiceStats RS = Server->registry().aggregateReplayStats();
  ServerMetrics &SM = Server->metrics();
  Counts["trace.cache_hits"] += double(RS.Cache.Hits);
  Counts["trace.cache_misses"] += double(RS.Cache.Misses);
  Counts["trace.evictions"] += double(RS.Cache.Evictions);
  Counts["vm.jit_compiles"] += double(RS.JitCompiles);
  Counts["vm.jit_bailouts"] += double(RS.JitBailouts);
  Counts["server.busy"] += double(SM.busyRejections());
  Counts["server.requests"] += double(SM.totalRequests());
  Counts["server.conn_high_water"] = std::max(
      Counts["server.conn_high_water"], double(SM.connHighWater()));
  // In-process Shutdown: its hook stops the epoll loop, which drains.
  Request Req;
  Req.Type = MsgType::Shutdown;
  Server->handle(Req);
  Loop.join();
  Server.reset();
  Shadow.reset();
}

void ServePath::setIngest(std::shared_ptr<stream::IngestRegistry> NewIngest,
                          StreamObserver NewObserve) {
  std::lock_guard<std::mutex> Lock(HookMutex);
  Ingest = std::move(NewIngest);
  Observe = std::move(NewObserve);
}

bool ServePath::runScript(ClientConnection &Conn, const Script &S,
                          uint64_t Rep, ClientSamples &Out,
                          std::vector<double> &Rtts) {
  Rtts.clear();
  Response Resp;
  auto Trip = [&](const Request &Req) {
    auto T = Clock::now();
    Span Rtt("server.rtt", Rep);
    bool Ok = Conn.roundTrip(Req, Resp);
    Rtt.stop();
    Rtts.push_back(secondsSince(T));
    return Ok;
  };
  std::vector<std::string> Got;
  Span Root("path.session", Rep);
  auto T0 = Clock::now();
  Request Open;
  Open.Type = MsgType::OpenSession;
  bool Ok = Trip(Open);
  if (!Ok || Resp.Type != RespType::SessionOpened) {
    B.Out.check(false, "OpenSession failed: " + answerText(Ok, Resp));
    return false;
  }
  uint64_t Session = Resp.SessionId;
  for (const ScriptStep &Step : S) {
    Ok = Trip(requestFor(Step, Session));
    if (Got.empty())
      Out.Open.add(secondsSince(T0));
    (Step.Type == MsgType::Races ? Out.Races : Out.Queries).add(Rtts.back());
    Got.push_back(answerText(Ok, Resp));
    if (!Ok)
      break;
  }
  Request Close;
  Close.Type = MsgType::CloseSession;
  Close.SessionId = Session;
  Ok = Trip(Close) && Resp.Type == RespType::Closed;
  Root.stop();

  B.Out.check(Ok, "CloseSession failed");
  for (size_t I = 0; I != S.size(); ++I)
    B.Out.check(I < Got.size() && Got[I] == S[I].Expected,
                "served answer to '" + S[I].Command +
                    "' differs from the in-process session");
  return Got.size() == S.size();
}

void ServePath::warmUp() {
  ClientConnection Conn;
  B.Out.check(Conn.connect(SocketPath), "cannot connect to " + SocketPath);
  ClientSamples Ignored;
  std::vector<double> Rtts;
  for (size_t I = 0; I != Scripts.size(); ++I) {
    if (!runScript(Conn, Scripts[I], I, Ignored, Rtts))
      break;
    if (Shadow)
      dispatchInProcess(Scripts[I], I);
  }
}

std::vector<double> ServePath::dispatchInProcess(const Script &S,
                                                 uint64_t Rep) {
  std::vector<double> Times;
  Response Resp;
  auto Call = [&](const Request &Req) {
    LogWriter W;
    encodeRequest(Req, W);
    auto T = Clock::now();
    Span D("server.dispatch", Rep);
    std::vector<uint8_t> Frame =
        Shadow->handleFrame(W.data() + 4, W.size() - 4);
    D.stop();
    Times.push_back(secondsSince(T));
    return Frame.size() >= 4 &&
           decodeResponse(Frame.data() + 4, Frame.size() - 4, Resp);
  };
  Request Open;
  Open.Type = MsgType::OpenSession;
  if (!Call(Open) || Resp.Type != RespType::SessionOpened) {
    B.Out.check(false, "in-process OpenSession failed");
    return Times;
  }
  uint64_t Session = Resp.SessionId;
  for (const ScriptStep &Step : S) {
    bool Ok = Call(requestFor(Step, Session));
    B.Out.check(answerText(Ok, Resp) == Step.Expected,
                "in-process answer to '" + Step.Command +
                    "' differs from the serial session");
  }
  Request Close;
  Close.Type = MsgType::CloseSession;
  Close.SessionId = Session;
  B.Out.check(Call(Close) && Resp.Type == RespType::Closed,
              "in-process CloseSession failed");
  return Times;
}

void ServePath::run(double Seconds) {
  ClientConnection Conn;
  if (!Conn.connect(SocketPath))
    return B.Out.check(false, "cannot connect to " + SocketPath);
  B.noteLoad(1);
  // Scripts run in turn, carrying on where the previous slice stopped.
  ClientSamples Slice;
  std::vector<double> Rtts;
  auto T0 = Clock::now();
  do {
    uint64_t Rep = NextScript++;
    const Script &S = Scripts[Rep % Scripts.size()];
    if (!runScript(Conn, S, Rep, Slice, Rtts))
      break;
    if (!TracingOn)
      continue;
    // A traced run sends the same frames through the twin's handleFrame
    // right after; each request's round trip minus its dispatch is what the
    // socket, the epoll loop and framing add.
    std::vector<double> Dispatch = dispatchInProcess(S, Rep);
    if (Dispatch.size() == Rtts.size())
      for (size_t I = 0; I != Rtts.size(); ++I)
        Transport.add(Rtts[I] - Dispatch[I]);
  } while (secondsSince(T0) < Seconds);
  Rates.add(double(Slice.Queries.size() + Slice.Races.size()) /
            secondsSince(T0));
  All.Open.append(Slice.Open);
  All.Races.append(Slice.Races);
  QueriesBySlice.push_back(Slice.Queries);
}

void ServePath::report() {
  Report &R = B.Out;
  std::printf("serve: replay-cache budget %zu bytes, scripts' trace working "
              "set %zu bytes\n",
              CacheBudget, WorkingSet);
  R.timing("session_open_ms", All.Open, 1e3, "ms");
  Samples Queries;
  for (const Samples &Slice : QueriesBySlice)
    Queries.append(Slice);
  R.timing("query_p50_us", Queries, 1e6, "us");
  R.metric("query_p99_us", sliceQuantile(QueriesBySlice, 0.99) * 1e6, "us");
  std::printf("sample served races: n=%zu median=%.6g ms\n", All.Races.size(),
              All.Races.median() * 1e3);
  R.timing("queries_per_s", Rates, 1, "1/s");
  R.timing("server.transport_us", Transport, 1e6, "us");
  for (const auto &[Name, Value] : Counts)
    R.metric(Name, Value, "count");
  double Lookups = Counts["trace.cache_hits"] + Counts["trace.cache_misses"];
  R.metric("trace.cache_hit_ratio",
           Lookups ? Counts["trace.cache_hits"] / Lookups : 0, "ratio");
}
