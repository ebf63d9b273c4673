// Tests for the per-transaction event record: the telemetry attempt chains
// (TelemetryOptions::collect_attempts) that the Chrome trace export renders.
#include <gtest/gtest.h>

#include "sim/machine.h"
#include "sim/shared.h"
#include "sim/telemetry.h"

namespace tsxhpc::sim {
namespace {

Telemetry attempt_telemetry() {
  TelemetryOptions opt;
  opt.collect_attempts = true;
  return Telemetry(opt);
}

TEST(Trace, RecordsBeginCommitAbortWithFootprints) {
  Telemetry tel = attempt_telemetry();
  Machine m;
  m.set_telemetry(&tel);
  auto cells = SharedArray<std::uint64_t>::alloc(m, 16, 0);
  m.run({.threads = 1, .body = [&](Context& c) {
    // A committing transaction touching 2 lines (16 cells span 2 lines;
    // read one, write the other).
    c.xbegin();
    (void)cells.at(0).load(c);
    cells.at(8).store(c, 1);
    c.xend();
    // An explicitly aborted one.
    try {
      c.xbegin();
      cells.at(0).store(c, 2);
      c.xabort(0x11);
    } catch (const TxAbort&) {
    }
  }});

  const auto attempts = tel.runs().at(0).attempts_in_order();
  ASSERT_EQ(attempts.size(), 2u);

  const AttemptRec& commit = attempts[0];
  EXPECT_TRUE(commit.committed);
  EXPECT_EQ(commit.read_lines, 1u);
  EXPECT_EQ(commit.write_lines, 1u);
  EXPECT_LE(commit.start, commit.end);

  const AttemptRec& abort = attempts[1];
  EXPECT_FALSE(abort.committed);
  EXPECT_EQ(abort.cause, AbortCause::kExplicit);
  EXPECT_EQ(abort.write_lines, 1u);
}

TEST(Trace, CycleStampsAreMonotonePerThread) {
  Telemetry tel = attempt_telemetry();
  Machine m;
  m.set_telemetry(&tel);
  auto cell = Shared<std::uint64_t>::alloc(m, 0);
  m.run({.threads = 4, .body = [&](Context& c) {
    for (int i = 0; i < 20; ++i) {
      try {
        c.xbegin();
        cell.store(c, cell.load(c) + 1);
        c.compute(100);
        c.xend();
      } catch (const TxAbort&) {
      }
    }
  }});
  const auto attempts = tel.runs().at(0).attempts_in_order();
  // Every one of the 80 attempts ends in exactly one commit or abort.
  ASSERT_EQ(attempts.size(), 80u);
  std::vector<Cycles> last(4, 0);
  std::size_t commits = 0;
  for (const AttemptRec& rec : attempts) {
    EXPECT_FALSE(rec.fallback);
    EXPECT_EQ(rec.committed, rec.cause == AbortCause::kNone);
    EXPECT_GE(rec.start, last[rec.tid]);
    EXPECT_GE(rec.end, rec.start);
    last[rec.tid] = rec.end;
    commits += rec.committed ? 1 : 0;
  }
  EXPECT_GE(commits, 1u);
}

TEST(Trace, DetachedTraceRecordsNothing) {
  Telemetry tel = attempt_telemetry();
  Machine m;  // telemetry never attached
  auto cell = Shared<std::uint64_t>::alloc(m, 0);
  m.run({.threads = 1, .body = [&](Context& c) {
    c.xbegin();
    cell.store(c, 1);
    c.xend();
  }});
  EXPECT_TRUE(tel.runs().empty());
  EXPECT_EQ(m.telemetry(), nullptr);
}

}  // namespace
}  // namespace tsxhpc::sim
