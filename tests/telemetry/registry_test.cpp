// Counter/gauge/sketch semantics of telemetry::Registry.
#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "telemetry/journal.h"
#include "telemetry/recorder.h"

namespace scent::telemetry {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, LastWriteWinsAndSigned) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(7);
  g.set(-3);
  EXPECT_EQ(g.value(), -3);
  g.add(5);
  EXPECT_EQ(g.value(), 2);
  g.set_u64(123);
  EXPECT_EQ(g.value(), 123);
}

TEST(Registry, InstrumentsAreCreatedOnFirstLookupAndStable) {
  Registry reg;
  Counter& c1 = reg.counter("probe.sent");
  c1.add(5);
  // Same name returns the same cell; creating other instruments must not
  // move it (hot-path callers cache the pointer).
  Counter* address = &c1;
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i));
  }
  Counter& c2 = reg.counter("probe.sent");
  EXPECT_EQ(&c2, address);
  EXPECT_EQ(c2.value(), 5u);
}

TEST(Registry, FindReturnsNullForMissingInstruments) {
  Registry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_sketch("nope"), nullptr);
  reg.counter("yes").inc();
  ASSERT_NE(reg.find_counter("yes"), nullptr);
  EXPECT_EQ(reg.find_counter("yes")->value(), 1u);
}

TEST(Registry, SketchIsCreatedOnFirstLookupAndStable) {
  Registry reg;
  QuantileSketch& sketch = reg.sketch("x");
  sketch.observe(7);
  for (int i = 0; i < 100; ++i) reg.sketch("filler." + std::to_string(i));
  QuantileSketch& again = reg.sketch("x");
  EXPECT_EQ(&again, &sketch);
  EXPECT_EQ(again.count(), 1u);
  ASSERT_NE(reg.find_sketch("x"), nullptr);
  EXPECT_EQ(reg.find_sketch("x")->max(), 7u);
}

TEST(Registry, ResetDropsInstrumentsButKeepsClock) {
  sim::VirtualClock clock{42};
  Registry reg;
  reg.set_clock(&clock);
  reg.counter("a").inc();
  reg.gauge("b").set(1);
  reg.sketch("c").observe(1);
  reg.span_begin("s");
  reg.span_end();
  reg.reset();
  EXPECT_EQ(reg.find_counter("a"), nullptr);
  EXPECT_TRUE(reg.counters().empty());
  EXPECT_TRUE(reg.gauges().empty());
  EXPECT_TRUE(reg.sketches().empty());
  EXPECT_TRUE(reg.spans().empty());
  EXPECT_EQ(reg.clock(), &clock);
}

TEST(Registry, CarriesTheJournalAndTraceCollector) {
  Journal journal;
  TraceCollector trace;
  Registry reg;
  EXPECT_EQ(trace_of(&reg), nullptr);
  EXPECT_EQ(trace_of(nullptr), nullptr);
  // No registry, or no journal on it: emitting is a no-op.
  EXPECT_FALSE(journal_event(nullptr, "e", {{"i", 1}}));
  EXPECT_FALSE(journal_event(&reg, "e", {{"i", 1}}));

  reg.attach_journal(&journal);
  reg.attach_trace(&trace);
  EXPECT_EQ(reg.journal(), &journal);
  EXPECT_EQ(trace_of(&reg), &trace);
  // Attaching the journal binds its drop counter up front.
  ASSERT_NE(reg.find_counter("journal.dropped"), nullptr);
  EXPECT_EQ(reg.find_counter("journal.dropped")->value(), 0u);

  reg.reset();
  EXPECT_EQ(reg.journal(), &journal);
  EXPECT_EQ(reg.trace(), &trace);
  reg.attach_journal(nullptr);
  reg.attach_trace(nullptr);
  EXPECT_EQ(reg.journal(), nullptr);
  EXPECT_EQ(trace_of(&reg), nullptr);
}

#ifdef __linux__
TEST(Registry, ResetRebindsTheJournalDropCounter) {
  // reset() destroys every counter, journal.dropped included; the attached
  // journal must count later drops into the new one, not the freed one.
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full not available";
  std::fclose(probe);

  Registry reg;
  Journal journal;
  ASSERT_TRUE(journal.open("/dev/full"));
  reg.attach_journal(&journal);
  reg.counter("journal.dropped").add(7);
  reg.reset();
  for (int i = 0; i < 10000; ++i) (void)journal_event(&reg, "fill", {{"i", i}});
  ASSERT_GT(journal.events_dropped(), 0u);
  EXPECT_EQ(reg.counter("journal.dropped").value(), journal.events_dropped());
}
#endif

}  // namespace
}  // namespace scent::telemetry
