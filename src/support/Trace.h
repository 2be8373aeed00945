//===- Trace.h - Pipeline-wide span tracing ---------------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock span tracing across the whole pipeline (cfront, alias,
/// C2bp, the prover, Bebop, Newton, the CEGAR driver), serialized as
/// Chrome trace-event JSON loadable in chrome://tracing or Perfetto.
///
/// Design (modeled on LLVM's TimeTraceProfiler):
///
///   * One process-global active TraceRecorder, installed by the tool
///     main when `--trace-out` is passed. Library code never sees a
///     recorder parameter; it opens RAII TraceSpan scopes that consult
///     the global.
///   * Disabled mode is near-zero-cost: a TraceSpan constructor is one
///     relaxed atomic load and a branch — no clock read, no allocation
///     (members are a pointer and PODs; the args vector stays empty).
///   * Span completion appends one event under a mutex. Spans may be
///     opened concurrently from parallelFor workers; events carry the
///     loop's worker id (tid = worker + 1 at every worker count, the
///     calling thread's worker 0 included; spans outside a loop are
///     tid 0) and serialization orders events deterministically by
///     (tid, start, sequence) so equal runs produce equal files.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_TRACE_H
#define SUPPORT_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace slam {

/// One completed span (a "ph":"X" Chrome trace event).
struct TraceEvent {
  std::string Name;
  const char *Category = "slam";
  int Tid = 0;        ///< 0 = main/external, worker id + 1 otherwise.
  uint64_t StartUs = 0; ///< Relative to the recorder's epoch.
  uint64_t DurUs = 0;
  uint64_t Seq = 0;   ///< Completion order (tie-break for sorting).
  std::vector<std::pair<std::string, std::string>> Args;
};

/// Collects completed spans; thread-safe. Construct, install with
/// setActive(), run the pipeline, uninstall, serialize.
class TraceRecorder {
public:
  TraceRecorder();

  /// Microseconds since this recorder's construction.
  uint64_t nowUs() const;

  /// Appends one completed event (called by ~TraceSpan, possibly from
  /// several threads at once).
  void record(TraceEvent E);

  size_t numEvents() const;

  /// Events sorted by (tid, start, -duration, seq) — a deterministic
  /// order for a fixed schedule that places enclosing spans before the
  /// spans they contain when starts tie at microsecond resolution.
  std::vector<TraceEvent> sortedEvents() const;

  /// The Chrome trace-event document ({"traceEvents": [...]}).
  std::string toChromeJson() const;

  /// Writes toChromeJson() to \p Path; false (with \p Err set) on I/O
  /// failure.
  bool writeChromeJson(const std::string &Path, std::string *Err) const;

  /// Installs/clears the process-global recorder consulted by
  /// TraceSpan. Pass nullptr to disable tracing. Not synchronized with
  /// in-flight spans: install before the traced work starts and clear
  /// after it quiesces.
  static void setActive(TraceRecorder *R) {
    ActiveRecorder.store(R, std::memory_order_release);
  }
  static TraceRecorder *active() {
    return ActiveRecorder.load(std::memory_order_acquire);
  }

private:
  static std::atomic<TraceRecorder *> ActiveRecorder;

  std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex M;
  std::vector<TraceEvent> Events;
  uint64_t NextSeq = 0;
};

/// RAII span: records [construction, destruction) against the active
/// recorder. When tracing is disabled the whole object is inert.
class TraceSpan {
public:
  /// \p Name must outlive the span (string literals at every call
  /// site).
  explicit TraceSpan(const char *Name, const char *Category = "slam")
      : R(TraceRecorder::active()), Name(Name), Category(Category) {
    if (R)
      StartUs = R->nowUs();
  }

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  /// Attaches a key-value argument shown in the trace viewer. No-op
  /// when tracing is disabled.
  void arg(const char *Key, std::string Value) {
    if (R)
      Args.emplace_back(Key, std::move(Value));
  }
  void arg(const char *Key, uint64_t Value) {
    if (R)
      Args.emplace_back(Key, std::to_string(Value));
  }
  void arg(const char *Key, int Value) {
    if (R)
      Args.emplace_back(Key, std::to_string(Value));
  }

  /// True when a recorder is active (lets call sites skip building
  /// expensive argument strings).
  bool enabled() const { return R != nullptr; }

  ~TraceSpan();

private:
  TraceRecorder *R;
  const char *Name;
  const char *Category;
  uint64_t StartUs = 0;
  std::vector<std::pair<std::string, std::string>> Args;
};
} // namespace slam

#endif // SUPPORT_TRACE_H
