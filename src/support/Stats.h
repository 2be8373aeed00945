//===- Stats.h - Named statistic counters -----------------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named counters in the spirit of LLVM's Statistic class, used to report
/// the quantities the paper tabulates (theorem-prover calls, cache hits,
/// cubes enumerated, BDD nodes, ...). Counters live in an explicit
/// registry object rather than global state so that benchmark harnesses
/// can run many configurations in one process without cross-talk.
///
/// The registry is thread-safe: counters may be bumped concurrently from
/// worker threads. The parallel abstraction nevertheless prefers one
/// registry per worker merged at report time (mergeFrom), keeping the
/// hot add() path uncontended; the internal mutex makes the occasional
/// shared registry safe rather than fast.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_STATS_H
#define SUPPORT_STATS_H

#include "support/Histogram.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace slam {

/// A registry of named 64-bit counters, gauges, and latency histograms.
///
/// Lookup is by name; creating a counter on first use keeps call sites
/// terse: \c Stats.add("prover.queries"). Names are looked up as
/// string views, so bumping an existing statistic allocates nothing,
/// however long its name. Three kinds of statistic
/// differ only in how \c mergeFrom combines them:
///
///   * counters (add/set)    — summed across registries;
///   * gauges   (setMax)     — maximum across registries. Peak values
///     (BDD node counts) must not be summed when per-worker registries
///     fold into the main one: the sum of per-worker peaks over-reports
///     a quantity no single worker ever observed;
///   * histograms (observe)  — merged bucket-wise (fixed log-scale
///     buckets, so addition is exact).
///
/// A name identifies one kind; using the same name as both a counter
/// and a gauge is a call-site bug (the gauge value wins in reports).
class StatsRegistry {
public:
  void add(std::string_view Name, uint64_t Delta = 1) {
    std::lock_guard<std::mutex> L(M);
    slot(Counters, Name) += Delta;
  }

  void set(std::string_view Name, uint64_t Value) {
    std::lock_guard<std::mutex> L(M);
    slot(Counters, Name) = Value;
  }

  /// Gauge write: keeps the maximum of all values ever set. mergeFrom
  /// takes the max for gauges instead of summing them.
  void setMax(std::string_view Name, uint64_t Value) {
    std::lock_guard<std::mutex> L(M);
    uint64_t &Slot = slot(Gauges, Name);
    if (Value > Slot)
      Slot = Value;
  }

  /// Records one latency sample (microseconds) into the named
  /// histogram.
  void observe(std::string_view Name, uint64_t Micros) {
    std::lock_guard<std::mutex> L(M);
    slot(Histograms, Name).observe(Micros);
  }

  uint64_t get(std::string_view Name) const {
    std::lock_guard<std::mutex> L(M);
    auto It = Counters.find(Name);
    if (It != Counters.end())
      return It->second;
    auto G = Gauges.find(Name);
    return G == Gauges.end() ? 0 : G->second;
  }

  /// Counters and gauges, merged and sorted by name.
  std::map<std::string, uint64_t> all() const {
    std::lock_guard<std::mutex> L(M);
    std::map<std::string, uint64_t> Out(Counters.begin(), Counters.end());
    for (const auto &[Name, Value] : Gauges)
      Out[Name] = Value;
    return Out;
  }

  std::map<std::string, uint64_t> allCounters() const {
    std::lock_guard<std::mutex> L(M);
    return {Counters.begin(), Counters.end()};
  }

  std::map<std::string, uint64_t> allGauges() const {
    std::lock_guard<std::mutex> L(M);
    return {Gauges.begin(), Gauges.end()};
  }

  std::map<std::string, LatencyHistogram> allHistograms() const {
    std::lock_guard<std::mutex> L(M);
    return {Histograms.begin(), Histograms.end()};
  }

  LatencyHistogram histogram(std::string_view Name) const {
    std::lock_guard<std::mutex> L(M);
    auto It = Histograms.find(Name);
    return It == Histograms.end() ? LatencyHistogram() : It->second;
  }

  /// Folds \p Other into this registry: counters add, gauges max,
  /// histograms merge bucket-wise. Used to fold per-worker registries
  /// into the caller's registry once a parallel phase has quiesced; the
  /// result is independent of merge order.
  void mergeFrom(const StatsRegistry &Other) {
    decltype(Counters) Snapshot;
    decltype(Gauges) GaugeSnapshot;
    decltype(Histograms) HistSnapshot;
    {
      std::lock_guard<std::mutex> L(Other.M);
      Snapshot = Other.Counters;
      GaugeSnapshot = Other.Gauges;
      HistSnapshot = Other.Histograms;
    }
    std::lock_guard<std::mutex> L(M);
    for (const auto &[Name, Value] : Snapshot)
      slot(Counters, Name) += Value;
    for (const auto &[Name, Value] : GaugeSnapshot) {
      uint64_t &Slot = slot(Gauges, Name);
      if (Value > Slot)
        Slot = Value;
    }
    for (const auto &[Name, H] : HistSnapshot)
      slot(Histograms, Name).mergeFrom(H);
  }

  /// Renders "name = value" lines sorted by name (counters and gauges;
  /// histograms are reported only through the JSON export, keeping this
  /// output stable for golden expectations).
  std::string str() const {
    std::string Out;
    for (const auto &[Name, Value] : all())
      Out += Name + " = " + std::to_string(Value) + "\n";
    return Out;
  }

  void clear() {
    std::lock_guard<std::mutex> L(M);
    Counters.clear();
    Gauges.clear();
    Histograms.clear();
  }

private:
  /// The entry named \p Name, created on first use. The maps compare
  /// transparently, so a name that exists already costs no allocation.
  template <typename Map>
  static typename Map::mapped_type &slot(Map &Entries, std::string_view Name) {
    auto It = Entries.find(Name);
    if (It == Entries.end())
      It = Entries.emplace(std::string(Name), typename Map::mapped_type())
               .first;
    return It->second;
  }

  mutable std::mutex M;
  std::map<std::string, uint64_t, std::less<>> Counters;
  std::map<std::string, uint64_t, std::less<>> Gauges;
  std::map<std::string, LatencyHistogram, std::less<>> Histograms;
};

/// Serializes a registry as one JSON document:
/// {"counters": {...}, "gauges": {...}, "histograms": {name:
///  {"count", "sum_us", "max_us", "buckets": [{"le_us", "count"}...]}}}.
std::string statsToJson(const StatsRegistry &Stats);

} // namespace slam

#endif // SUPPORT_STATS_H
