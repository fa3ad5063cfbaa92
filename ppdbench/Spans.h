//===- ppdbench/Spans.h - Benchmark-side tracing and statistics -*- C++ -*-===//
//
// Part of the PPD end-to-end benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded around each call the benchmark makes into a PPD layer,
/// plus the sample statistics every metric is computed from.
///
/// A span has a name ("<layer>.<call>"), start and end, the span open on
/// the same thread when it began (its parent), and a rep id shared by every
/// span of one session, stream or path repetition. Spans stay in per-thread
/// memory while the run measures and are written out when it ends. With
/// tracing off a Span costs one branch; the end-to-end metrics come from
/// untraced runs and the per-layer ones from a separate traced run.
///
//===----------------------------------------------------------------------===//

#ifndef PPDBENCH_SPANS_H
#define PPDBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ppdbench {

using Clock = std::chrono::steady_clock;

inline uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count());
}

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct SpanRecord {
  const char *Name = nullptr;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint32_t Id = 0;     ///< unique within its thread.
  uint32_t Parent = 0; ///< 0 = root.
  uint32_t Thread = 0;
  uint64_t Rep = 0;
};

/// Global switch; set once before measuring.
extern bool TracingOn;

/// RAII span. Closes at scope exit or at stop(), whichever comes first. A
/// null name records nothing.
class Span {
public:
  Span(const char *Name, uint64_t Rep);
  ~Span() { stop(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  void stop();

private:
  int64_t Slot = -1; ///< index into the thread's buffer; -1 when off.
};

/// Every span recorded so far, from every thread. Call after all
/// recording threads have been joined.
std::vector<SpanRecord> collectSpans();

/// Writes one JSON object per span, one per line.
bool writeSpans(const std::vector<SpanRecord> &Spans, const std::string &Path);

/// A set of timing samples.
class Samples {
public:
  void add(double V) { Values.push_back(V); }
  void append(const Samples &Other) {
    Values.insert(Values.end(), Other.Values.begin(), Other.Values.end());
  }
  size_t size() const { return Values.size(); }
  double last() const { return Values.back(); }
  bool empty() const { return Values.empty(); }
  double median() const { return quantile(0.5); }
  /// Quantile \p Q in [0, 1], interpolated between neighbouring samples.
  double quantile(double Q) const;
  /// The highest of p50/p90/p99/p99.9 with at least ten samples above
  /// it, as {percentile, value}; {0, 0} with fewer than 20 samples.
  std::pair<double, double> tailPercentile() const;
  double sum() const;

private:
  std::vector<double> Values;
};

/// Per-name duration and self-time samples (seconds) of recorded spans. A
/// span's self time is its duration minus its child spans'.
struct SpanSummary {
  std::map<std::string, Samples> Durations, SelfTimes;
  /// Self seconds summed by layer (the name's prefix before the dot).
  std::map<std::string, double> LayerSelfSeconds;
};
SpanSummary summarizeSpans(const std::vector<SpanRecord> &Spans);


/// The median, over the run's slices, of each slice's \p Q quantile: a tail
/// estimate that a burst of host noise in one slice cannot move.
double sliceQuantile(const std::vector<Samples> &Slices, double Q);

} // namespace ppdbench

#endif // PPDBENCH_SPANS_H
