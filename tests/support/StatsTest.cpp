//===- StatsTest.cpp ------------------------------------------------------===//

#include "support/Stats.h"

#include <gtest/gtest.h>

using namespace slam;

TEST(Stats, MissingCounterIsZero) {
  StatsRegistry Stats;
  EXPECT_EQ(Stats.get("nope"), 0u);
}

TEST(Stats, AddAccumulates) {
  StatsRegistry Stats;
  Stats.add("prover.calls");
  Stats.add("prover.calls", 4);
  EXPECT_EQ(Stats.get("prover.calls"), 5u);
}

TEST(Stats, NamesAreTheCharactersOfTheirView) {
  // A view need not end at a terminator: its name is its characters.
  std::string_view Text = "prover.cache_hits.extra";
  StatsRegistry Stats;
  Stats.add(Text.substr(0, 17), 2);
  Stats.add(Text.substr(0, 17));
  Stats.setMax(Text.substr(0, 6), 7);
  EXPECT_EQ(Stats.get("prover.cache_hits"), 3u);
  EXPECT_EQ(Stats.get(Text.substr(0, 6)), 7u);
  EXPECT_EQ(Stats.all().size(), 2u);
}

TEST(Stats, SetOverwrites) {
  StatsRegistry Stats;
  Stats.add("x", 10);
  Stats.set("x", 3);
  EXPECT_EQ(Stats.get("x"), 3u);
}

TEST(Stats, RendersSorted) {
  StatsRegistry Stats;
  Stats.add("b", 2);
  Stats.add("a", 1);
  EXPECT_EQ(Stats.str(), "a = 1\nb = 2\n");
}
