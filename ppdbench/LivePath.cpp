//===- ppdbench/LivePath.cpp - Live tail while the program runs ------------===//
//
// Part of the PPD end-to-end benchmark.
//
// The `ppd run --stream` shape: a tracer runs the program logged and
// streams consistent cuts through StreamClient to the serve path's server,
// whose stream hook feeds a fresh IngestRegistry per stream. A monitor
// connection asks one tail query per applied cut, and once the stream has
// ended its last answer must equal a batch session's over the final log.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Controller.h"
#include "core/DebugSession.h"
#include "log/ProgramDb.h"
#include "server/Wire.h"
#include "stream/Ingest.h"
#include "stream/StreamClient.h"
#include "vm/Machine.h"

#include <condition_variable>
#include <cstdio>

using namespace ppd;
using namespace ppdbench;

void LivePath::setup() { TracerProg = compileOrDie(B.Gen.Source, true); }

void LivePath::buildOracle(const CompiledProgram &Prog,
                           const ExecutionLog &Log) {
  TailCommand = "where 1";
  PpdController Ctrl(Prog, Log);
  DebugSession Session(Prog, Ctrl);
  ExpectedFinal = Session.execute(TailCommand);
}

void LivePath::stream(uint64_t Rep) {
  // What the stream hook reports: the bytes shipped and the cuts applied.
  struct {
    std::mutex M;
    std::condition_variable Cv;
    uint64_t AppliedCuts = 0;
    uint64_t Bytes = 0;
  } St;
  Server.setIngest(
      std::make_shared<stream::IngestRegistry>(Server.server(),
                                               stream::IngestOptions()),
      [&St](const Request &Req, const Response &Resp) {
        if (Req.Type != MsgType::SectionData)
          return;
        std::lock_guard<std::mutex> Lock(St.M);
        St.Bytes += Req.Blob.size();
        if ((Req.Flags & SectionLastInCut) && Resp.Type == RespType::Ack) {
          ++St.AppliedCuts;
          St.Cv.notify_all();
        }
      });

  // The tracer: ppd run --stream.
  MachineOptions MOpts;
  MOpts.Seed = ScheduleSeed;
  Machine M(*TracerProg, MOpts);
  stream::StreamClientOptions SOpts;
  SOpts.SocketPath = Server.socketPath();
  SOpts.Sealer.ProgramHash = programHash(*TracerProg);
  stream::StreamClient Client(SOpts);
  // A traced run times sealing on a shadow sealer fed the same rounds: it
  // seals exactly the cuts the client's own sealer does. Rounds come every
  // few instructions, so only rounds that seal a cut get a span.
  stream::StreamSealer Shadow(SOpts.Sealer);

  // The monitor's connection. The tracer asks the tail query itself once
  // the server has applied a cut, so every cut gets one query at exactly
  // that frontier, a stream's queries do the same work on every run, and
  // the load is two connections on the tracer's thread.
  ClientConnection Monitor;
  bool MonitorOk = Monitor.connect(Server.socketPath());
  B.Out.check(MonitorOk, "cannot connect the monitor");
  bool Started = Client.start();
  B.noteLoad(2);
  auto TailQuery = [&](std::string &Text) {
    Request Req;
    Req.Type = MsgType::TailQuery;
    Req.StreamId = Client.streamId();
    Req.Command = TailCommand;
    Response Resp;
    MonitorOk = MonitorOk && Monitor.roundTrip(Req, Resp) &&
                Resp.Type == RespType::Result;
    Text = Resp.Text;
    return MonitorOk;
  };

  // Ingest time runs from the first section to the StreamEnd ack and
  // includes the server applying each cut (the wait below); only the tail
  // queries are taken out of it.
  Samples Local;
  double SealSecs = 0, TailSecs = 0;
  std::string Text;
  auto AfterCut = [&] {
    if (!MonitorOk)
      return;
    {
      Span S("wait.cut_applied", Rep);
      std::unique_lock<std::mutex> Lock(St.M);
      if (!St.Cv.wait_for(Lock, std::chrono::seconds(30), [&] {
            return St.AppliedCuts >= Client.cutsSealed();
          })) {
        MonitorOk = false;
        return B.Out.check(false, "cut " +
                                      std::to_string(Client.cutsSealed()) +
                                      " was not applied");
      }
    }
    auto T = Clock::now();
    Span S("wait.tail_query", Rep);
    bool Ok = TailQuery(Text);
    S.stop();
    double Secs = secondsSince(T);
    TailSecs += Secs;
    Local.add(Secs);
    B.Out.check(Ok, "tail query failed: " + Text);
  };
  Span Root("path.stream", Rep);
  auto T0 = Clock::now();
  M.onRound([&](Machine &Mach) {
    uint64_t Cuts = Client.cutsSealed();
    if (!TracingOn) {
      Client.pollRound(Mach.log());
    } else {
      auto T = Clock::now();
      bool Sealed = !Shadow.sealRound(Mach.log()).empty();
      SealSecs += secondsSince(T);
      Span S(Sealed ? "stream.poll" : nullptr, Rep);
      Client.pollRound(Mach.log());
    }
    if (Client.cutsSealed() != Cuts && !Client.failed())
      AfterCut();
  });
  RunResult Run;
  {
    Span S("vm.streamed_run", Rep);
    Run = M.run();
  }
  bool Finished;
  {
    Span S("stream.finish", Rep);
    Finished = Started && Client.finish(M.log());
  }
  double Secs = secondsSince(T0) - TailSecs;
  Root.stop();
  std::string Final;
  bool FinalOk = TailQuery(Final);
  Server.setIngest(nullptr, nullptr);

  TailBySlice.back().append(Local);
  IngestRate.add(double(St.Bytes) / 1e6 / Secs);
  StallSeconds.add(double(Client.stallMicros()) * 1e-6);
  SealSeconds.add(SealSecs);
  B.Out.check(Run.Outcome == RunResult::Status::Completed,
              "streamed run did not complete");
  B.Out.check(Finished, "stream did not complete: " + Client.error());
  B.Out.check(FinalOk && Final == ExpectedFinal,
              "last tail answer differs from the batch session over the "
              "final log");
  Counts = {{"stream.cuts", double(Client.cutsSealed())},
            {"stream.bytes", double(St.Bytes)}};
}

void LivePath::run(double Seconds) {
  TailBySlice.emplace_back();
  auto T0 = Clock::now();
  do
    stream(NextRep++);
  while (secondsSince(T0) < Seconds);
}

void LivePath::report() {
  Report &R = B.Out;
  Samples Tail;
  for (const Samples &Slice : TailBySlice)
    Tail.append(Slice);
  R.timing("tail_query_p50_us", Tail, 1e6, "us");
  R.metric("tail_query_p99_us", sliceQuantile(TailBySlice, 0.99) * 1e6,
           "us");
  R.timing("ingest_mb_per_s", IngestRate, 1, "MB/s");
  R.timing("stream.stall_s", StallSeconds, 1, "s");
  R.timing("stream.seal_s", SealSeconds, 1, "s");
  for (const auto &[Name, Value] : Counts)
    R.metric(Name, Value, Name == "stream.bytes" ? "bytes" : "count");
}
