//===- TraceTest.cpp ------------------------------------------------------===//

#include "support/Trace.h"

#include "support/JsonCheck.h"
#include "support/ParallelFor.h"

#include <gtest/gtest.h>

#include <set>

using namespace slam;

namespace {

/// Installs \p R as the process-global recorder for one test body and
/// restores the previous one on exit (keeps tests order-independent).
class ScopedRecorder {
public:
  explicit ScopedRecorder(TraceRecorder &R)
      : Prev(TraceRecorder::active()) {
    TraceRecorder::setActive(&R);
  }
  ~ScopedRecorder() { TraceRecorder::setActive(Prev); }

private:
  TraceRecorder *Prev;
};

} // namespace

TEST(Trace, DisabledSpansRecordNothing) {
  ASSERT_EQ(TraceRecorder::active(), nullptr);
  {
    TraceSpan Span("noop");
    EXPECT_FALSE(Span.enabled());
    Span.arg("k", std::string("v"));
  }
  TraceRecorder R;
  EXPECT_EQ(R.numEvents(), 0u);
}

TEST(Trace, RecordsNestedSpans) {
  TraceRecorder R;
  ScopedRecorder Install(R);
  // Spins until the recorder clock ticks so the two spans cannot share
  // a start microsecond (starts that tie sort by duration instead).
  auto TickClock = [&R] {
    uint64_t T0 = R.nowUs();
    while (R.nowUs() <= T0) {
    }
  };
  {
    TraceSpan Outer("outer", "test");
    TickClock();
    {
      TraceSpan Inner("inner", "test");
      EXPECT_TRUE(Inner.enabled());
      TickClock();
    }
    TickClock();
  }
  ASSERT_EQ(R.numEvents(), 2u);
  std::vector<TraceEvent> Events = R.sortedEvents();
  // Same thread: sorted by start time, so outer (opened first) leads.
  EXPECT_EQ(Events[0].Name, "outer");
  EXPECT_EQ(Events[1].Name, "inner");
  EXPECT_LT(Events[0].StartUs, Events[1].StartUs);
  // The inner span is contained in the outer one.
  EXPECT_LE(Events[1].StartUs + Events[1].DurUs,
            Events[0].StartUs + Events[0].DurUs);
  EXPECT_EQ(Events[0].Tid, 0); // Main thread.
}

TEST(Trace, CapturesArgs) {
  TraceRecorder R;
  ScopedRecorder Install(R);
  {
    TraceSpan Span("q", "test");
    Span.arg("result", std::string("unsat"));
    Span.arg("count", static_cast<uint64_t>(7));
  }
  std::vector<TraceEvent> Events = R.sortedEvents();
  ASSERT_EQ(Events.size(), 1u);
  ASSERT_EQ(Events[0].Args.size(), 2u);
  EXPECT_EQ(Events[0].Args[0].first, "result");
  EXPECT_EQ(Events[0].Args[0].second, "unsat");
  EXPECT_EQ(Events[0].Args[1].second, "7");
}

TEST(Trace, TagsWorkerThreadIds) {
  TraceRecorder R;
  ScopedRecorder Install(R);
  parallelFor(2, 16, [](unsigned, size_t) { TraceSpan Span("task", "test"); });
  std::vector<TraceEvent> Events = R.sortedEvents();
  ASSERT_EQ(Events.size(), 16u);
  std::set<int> Tids;
  for (const TraceEvent &E : Events) {
    EXPECT_GE(E.Tid, 1); // Loop workers are tid 1..N, never main's 0.
    EXPECT_LE(E.Tid, 2);
    Tids.insert(E.Tid);
  }
  EXPECT_FALSE(Tids.empty());
}

TEST(Trace, SortedEventsOrderIsDeterministic) {
  TraceRecorder R;
  ScopedRecorder Install(R);
  { TraceSpan A("a", "test"); }
  { TraceSpan B("b", "test"); }
  std::vector<TraceEvent> First = R.sortedEvents();
  std::vector<TraceEvent> Second = R.sortedEvents();
  ASSERT_EQ(First.size(), Second.size());
  for (size_t I = 0; I != First.size(); ++I) {
    EXPECT_EQ(First[I].Name, Second[I].Name);
    EXPECT_EQ(First[I].Seq, Second[I].Seq);
  }
}

TEST(Trace, ChromeJsonIsValidAndNamesThreads) {
  TraceRecorder R;
  ScopedRecorder Install(R);
  {
    TraceSpan Span("phase \"x\"", "test"); // Name needing escaping.
    Span.arg("file", std::string("a\\b.c"));
  }
  parallelFor(1, 1,
              [](unsigned, size_t) { TraceSpan Span("worker-task", "test"); });
  std::string Doc = R.toChromeJson();
  EXPECT_TRUE(json::isValid(Doc));
  EXPECT_NE(Doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Doc.find("thread_name"), std::string::npos);
  EXPECT_NE(Doc.find("worker-1"), std::string::npos);
  EXPECT_NE(Doc.find("phase \\\"x\\\""), std::string::npos);
}
