//===- Trace.cpp - Chrome trace-event recording -------------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Json.h"
#include "support/ParallelFor.h"

#include <algorithm>
#include <fstream>

using namespace slam;

std::atomic<TraceRecorder *> TraceRecorder::ActiveRecorder{nullptr};

TraceRecorder::TraceRecorder() : Epoch(std::chrono::steady_clock::now()) {}

uint64_t TraceRecorder::nowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

void TraceRecorder::record(TraceEvent E) {
  std::lock_guard<std::mutex> L(M);
  E.Seq = NextSeq++;
  Events.push_back(std::move(E));
}

size_t TraceRecorder::numEvents() const {
  std::lock_guard<std::mutex> L(M);
  return Events.size();
}

std::vector<TraceEvent> TraceRecorder::sortedEvents() const {
  std::vector<TraceEvent> Out;
  {
    std::lock_guard<std::mutex> L(M);
    Out = Events;
  }
  std::sort(Out.begin(), Out.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              if (A.Tid != B.Tid)
                return A.Tid < B.Tid;
              if (A.StartUs != B.StartUs)
                return A.StartUs < B.StartUs;
              // Starts can tie at microsecond resolution; the longer
              // span is the enclosing one, so it goes first.
              if (A.DurUs != B.DurUs)
                return A.DurUs > B.DurUs;
              return A.Seq < B.Seq;
            });
  return Out;
}

std::string TraceRecorder::toChromeJson() const {
  std::vector<TraceEvent> Sorted = sortedEvents();
  int MaxTid = 0;
  for (const TraceEvent &E : Sorted)
    MaxTid = std::max(MaxTid, E.Tid);

  std::string Out;
  json::Writer W(Out);
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();

  // Thread-name metadata rows so the viewer labels the loop workers.
  for (int Tid = 0; Tid <= MaxTid; ++Tid) {
    W.beginObject();
    W.kv("name", "thread_name");
    W.kv("ph", "M");
    W.kv("pid", 1);
    W.kv("tid", Tid);
    W.key("args");
    W.beginObject();
    W.kv("name", Tid == 0 ? std::string("main")
                          : "worker-" + std::to_string(Tid));
    W.endObject();
    W.endObject();
  }

  for (const TraceEvent &E : Sorted) {
    W.beginObject();
    W.kv("name", E.Name);
    W.kv("cat", E.Category);
    W.kv("ph", "X");
    W.kv("ts", E.StartUs);
    W.kv("dur", E.DurUs);
    W.kv("pid", 1);
    W.kv("tid", E.Tid);
    if (!E.Args.empty()) {
      W.key("args");
      W.beginObject();
      for (const auto &[K, V] : E.Args)
        W.kv(K, V);
      W.endObject();
    }
    W.endObject();
  }

  W.endArray();
  W.kv("displayTimeUnit", "ms");
  W.endObject();
  Out += '\n';
  return Out;
}

bool TraceRecorder::writeChromeJson(const std::string &Path,
                                    std::string *Err) const {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out) {
    if (Err)
      *Err = "cannot open '" + Path + "' for writing";
    return false;
  }
  std::string J = toChromeJson();
  Out.write(J.data(), static_cast<std::streamsize>(J.size()));
  Out.flush();
  if (!Out) {
    if (Err)
      *Err = "write to '" + Path + "' failed";
    return false;
  }
  return true;
}

TraceSpan::~TraceSpan() {
  if (!R)
    return;
  TraceEvent E;
  E.Name = Name;
  E.Category = Category;
  int Worker = currentWorkerId();
  E.Tid = Worker < 0 ? 0 : Worker + 1;
  E.StartUs = StartUs;
  uint64_t End = R->nowUs();
  E.DurUs = End > StartUs ? End - StartUs : 0;
  E.Args = std::move(Args);
  R->record(std::move(E));
}
