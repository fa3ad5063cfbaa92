//===- ppdbench/Spans.cpp -------------------------------------------------===//
//
// Part of the PPD end-to-end benchmark. See Spans.h.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>

using namespace ppdbench;

bool ppdbench::TracingOn = false;

namespace {

struct ThreadBuffer {
  uint32_t Thread = 0;
  std::vector<SpanRecord> Spans;
  std::vector<uint32_t> Open; ///< ids of the spans open on this thread.
};

// Buffers outlive their threads: collectSpans runs after the joins.
std::mutex RegistryMutex;
std::vector<std::unique_ptr<ThreadBuffer>> Registry;
thread_local ThreadBuffer *Local = nullptr;

ThreadBuffer &localBuffer() {
  if (!Local) {
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    Registry.push_back(std::make_unique<ThreadBuffer>());
    Local = Registry.back().get();
    Local->Thread = uint32_t(Registry.size());
  }
  return *Local;
}

} // namespace

Span::Span(const char *Name, uint64_t Rep) {
  if (!TracingOn || !Name)
    return;
  ThreadBuffer &B = localBuffer();
  SpanRecord R;
  R.Name = Name;
  R.Id = uint32_t(B.Spans.size() + 1);
  R.Parent = B.Open.empty() ? 0 : B.Open.back();
  R.Thread = B.Thread;
  R.Rep = Rep;
  B.Open.push_back(R.Id);
  Slot = int64_t(B.Spans.size());
  R.StartNs = nowNs();
  B.Spans.push_back(R);
}

void Span::stop() {
  if (Slot < 0)
    return;
  uint64_t End = nowNs();
  ThreadBuffer &B = localBuffer();
  SpanRecord &R = B.Spans[size_t(Slot)];
  R.EndNs = End;
  auto It = std::find(B.Open.begin(), B.Open.end(), R.Id);
  if (It != B.Open.end())
    B.Open.erase(It);
  Slot = -1;
}

std::vector<SpanRecord> ppdbench::collectSpans() {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  std::vector<SpanRecord> All;
  for (const auto &B : Registry)
    All.insert(All.end(), B->Spans.begin(), B->Spans.end());
  return All;
}

SpanSummary ppdbench::summarizeSpans(const std::vector<SpanRecord> &Spans) {
  // Child coverage by (thread, parent id). Children of one parent run on
  // the parent's thread and nest, so their durations never overlap.
  std::map<std::pair<uint32_t, uint32_t>, double> Covered;
  for (const SpanRecord &S : Spans)
    if (S.Parent != 0 && S.EndNs >= S.StartNs)
      Covered[{S.Thread, S.Parent}] += double(S.EndNs - S.StartNs) * 1e-9;

  SpanSummary Out;
  for (const SpanRecord &S : Spans) {
    if (S.EndNs < S.StartNs)
      continue;
    double Dur = double(S.EndNs - S.StartNs) * 1e-9;
    Out.Durations[S.Name].add(Dur);
    auto It = Covered.find({S.Thread, S.Id});
    double Self = std::max(Dur - (It == Covered.end() ? 0.0 : It->second), 0.0);
    Out.SelfTimes[S.Name].add(Self);
    std::string Name = S.Name;
    Out.LayerSelfSeconds[Name.substr(0, Name.find('.'))] += Self;
  }
  return Out;
}

bool ppdbench::writeSpans(const std::vector<SpanRecord> &Spans,
                          const std::string &Path) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const SpanRecord &S : Spans)
    std::fprintf(F,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"thread\":%u,\"id\":%u,\"parent\":%u,\"rep\":%llu}\n",
                 S.Name, (unsigned long long)S.StartNs,
                 (unsigned long long)S.EndNs, S.Thread, S.Id, S.Parent,
                 (unsigned long long)S.Rep);
  return std::fclose(F) == 0;
}

double Samples::quantile(double Q) const {
  if (Values.empty())
    return 0;
  std::vector<double> Sorted = Values;
  std::sort(Sorted.begin(), Sorted.end());
  double Pos = Q * double(Sorted.size() - 1);
  size_t Lo = size_t(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Pos - double(Lo);
  return Sorted[Lo] * (1 - Frac) + Sorted[Hi] * Frac;
}

double Samples::sum() const {
  double Sum = 0;
  for (double V : Values)
    Sum += V;
  return Sum;
}

std::pair<double, double> Samples::tailPercentile() const {
  for (double P : {99.9, 99.0, 90.0, 50.0})
    if (double(Values.size()) * (1 - P / 100) >= 10)
      return {P, quantile(P / 100)};
  return {0, 0};
}

double ppdbench::sliceQuantile(const std::vector<Samples> &Slices, double Q) {
  Samples PerSlice;
  for (const Samples &S : Slices)
    if (!S.empty())
      PerSlice.add(S.quantile(Q));
  return PerSlice.median();
}
