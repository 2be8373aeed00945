//===- HistogramTest.cpp --------------------------------------------------===//

#include "support/Histogram.h"

#include "support/JsonCheck.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

using namespace slam;

TEST(Histogram, StartsEmpty) {
  LatencyHistogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.sumMicros(), 0u);
  EXPECT_EQ(H.maxMicros(), 0u);
  EXPECT_EQ(H.numUsedBuckets(), 0);
}

TEST(Histogram, BucketBoundariesArePowersOfTwo) {
  // Bucket 0 holds exactly 0us; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(LatencyHistogram::bucketFor(0), 0);
  EXPECT_EQ(LatencyHistogram::bucketFor(1), 1);
  EXPECT_EQ(LatencyHistogram::bucketFor(2), 2);
  EXPECT_EQ(LatencyHistogram::bucketFor(3), 2);
  EXPECT_EQ(LatencyHistogram::bucketFor(4), 3);
  EXPECT_EQ(LatencyHistogram::bucketFor(1023), 10);
  EXPECT_EQ(LatencyHistogram::bucketFor(1024), 11);
}

TEST(Histogram, OverflowSamplesLandInLastBucket) {
  LatencyHistogram H;
  H.observe(~0ull);
  EXPECT_EQ(H.bucket(LatencyHistogram::NumBuckets - 1), 1u);
  EXPECT_EQ(H.maxMicros(), ~0ull);
}

TEST(Histogram, ObserveTracksCountSumMax) {
  LatencyHistogram H;
  H.observe(10);
  H.observe(100);
  H.observe(3);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_EQ(H.sumMicros(), 113u);
  EXPECT_EQ(H.maxMicros(), 100u);
  EXPECT_EQ(H.bucket(LatencyHistogram::bucketFor(10)), 1u);
}

TEST(Histogram, MergeAddsBucketsAndMaxesMax) {
  LatencyHistogram A, B;
  A.observe(5);
  A.observe(900);
  B.observe(5);
  B.observe(40000);
  A.mergeFrom(B);
  EXPECT_EQ(A.count(), 4u);
  EXPECT_EQ(A.sumMicros(), 5u + 900u + 5u + 40000u);
  EXPECT_EQ(A.maxMicros(), 40000u);
  EXPECT_EQ(A.bucket(LatencyHistogram::bucketFor(5)), 2u);
}

TEST(Stats, GaugeSetMaxKeepsPeak) {
  StatsRegistry Stats;
  Stats.setMax("bdd.nodes", 100);
  Stats.setMax("bdd.nodes", 40); // Lower write must not regress the peak.
  EXPECT_EQ(Stats.get("bdd.nodes"), 100u);
  Stats.setMax("bdd.nodes", 250);
  EXPECT_EQ(Stats.get("bdd.nodes"), 250u);
}

TEST(Stats, MergeSumsCountersButMaxesGauges) {
  // Models per-worker registries folding into the main one: counted
  // work adds up, but peaks must not (no single worker saw the sum).
  StatsRegistry Main, W1, W2;
  W1.add("prover.calls", 10);
  W2.add("prover.calls", 7);
  W1.setMax("bdd.nodes", 500);
  W2.setMax("bdd.nodes", 900);
  Main.mergeFrom(W1);
  Main.mergeFrom(W2);
  EXPECT_EQ(Main.get("prover.calls"), 17u);
  EXPECT_EQ(Main.get("bdd.nodes"), 900u);
}

TEST(Stats, MergeCombinesHistogramsAcrossRegistries) {
  StatsRegistry Main, W1, W2;
  W1.observe("prover.query_us", 12);
  W1.observe("prover.query_us", 300);
  W2.observe("prover.query_us", 12);
  Main.mergeFrom(W1);
  Main.mergeFrom(W2);
  LatencyHistogram H = Main.histogram("prover.query_us");
  EXPECT_EQ(H.count(), 3u);
  EXPECT_EQ(H.sumMicros(), 324u);
  EXPECT_EQ(H.maxMicros(), 300u);
  EXPECT_EQ(H.bucket(LatencyHistogram::bucketFor(12)), 2u);
}

TEST(Stats, StrOmitsHistogramsAndIncludesGauges) {
  StatsRegistry Stats;
  Stats.add("a", 1);
  Stats.setMax("g", 9);
  Stats.observe("h.us", 5);
  EXPECT_EQ(Stats.str(), "a = 1\ng = 9\n");
}

TEST(Stats, JsonExportIsValidAndComplete) {
  StatsRegistry Stats;
  Stats.add("prover.calls", 3);
  Stats.setMax("bdd.nodes", 128);
  Stats.observe("prover.query_us", 50);
  Stats.observe("prover.query_us", 900);
  std::string Doc = statsToJson(Stats);
  EXPECT_TRUE(json::isValid(Doc));
  EXPECT_NE(Doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(Doc.find("\"prover.calls\":3"), std::string::npos);
  EXPECT_NE(Doc.find("\"gauges\""), std::string::npos);
  EXPECT_NE(Doc.find("\"bdd.nodes\":128"), std::string::npos);
  EXPECT_NE(Doc.find("\"histograms\""), std::string::npos);
  EXPECT_NE(Doc.find("\"count\":2"), std::string::npos);
  EXPECT_NE(Doc.find("\"sum_us\":950"), std::string::npos);
}
