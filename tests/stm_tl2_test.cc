// Unit and property tests for the TL2 software transactional memory.
#include <gtest/gtest.h>

#include "sim/rng.h"
#include "stm/tl2.h"

namespace tsxhpc::stm {
namespace {

using sim::Context;
using sim::Machine;
using sim::RunStats;
using sim::Shared;
using sim::SharedArray;

TEST(Tl2, ReadYourOwnWrites) {
  Machine m;
  Tl2Space space(m);
  auto cell = Shared<std::uint64_t>::alloc(m, 3);
  m.run({.threads = 1, .body = [&](Context& c) {
    Tl2Tx tx(space);
    tx.begin(c);
    EXPECT_EQ(tx.read(c, cell.addr()), 3u);
    tx.write(c, cell.addr(), 9);
    EXPECT_EQ(tx.read(c, cell.addr()), 9u);
    EXPECT_EQ(cell.peek(m), 3u) << "no write-back before commit";
    tx.commit(c);
  }});
  EXPECT_EQ(cell.peek(m), 9u);
}

TEST(Tl2, SubWordWritesMerge) {
  Machine m;
  Tl2Space space(m);
  sim::Addr a = m.alloc(8);
  m.heap().write_word(a, 0x1111111111111111ULL, 8);
  m.run({.threads = 1, .body = [&](Context& c) {
    Tl2Tx tx(space);
    tx.begin(c);
    tx.write(c, a, 0xAB, 1);
    tx.write(c, a + 4, 0xCDEF, 2);
    EXPECT_EQ(tx.read(c, a, 1), 0xABu);
    tx.commit(c);
  }});
  EXPECT_EQ(m.heap().read_word(a, 8), 0x1111CDEF111111ABULL);
}

TEST(Tl2, ConflictingWriterAbortsReader) {
  // A committed writer bumps the stripe version past the reader's snapshot.
  sim::MachineConfig cfg;
  cfg.sched_quantum = 0;
  Machine m(cfg);
  Tl2Space space(m);
  auto cell = Shared<std::uint64_t>::alloc(m, 0);
  int aborts = 0;
  m.run({.bodies = {
      [&](Context& c) {
        Tl2Tx tx(space);
        tx.begin(c);
        (void)tx.read(c, cell.addr());
        for (int i = 0; i < 300; ++i) c.compute(100);
        try {
          (void)tx.read(c, cell.addr() + 8 < cell.addr() ? cell.addr()
                                                         : cell.addr());
          tx.commit(c);
        } catch (const StmAbort&) {
          aborts++;
        }
      },
      [&](Context& c) {
        c.compute(4000);
        Tl2Tx tx(space);
        tx.begin(c);
        tx.write(c, cell.addr(), 42);
        tx.commit(c);
      },
  }});
  // The reader either aborted at re-read/commit validation, or it committed
  // read-only before the writer — with these delays it must abort.
  EXPECT_EQ(aborts, 1);
}

TEST(Tl2, CounterIncrementsAreLinearizable) {
  Machine m;
  Tl2Space space(m);
  auto counter = Shared<std::uint64_t>::alloc(m, 0);
  constexpr int kThreads = 8;
  constexpr int kIters = 250;
  m.run({.threads = kThreads, .body = [&](Context& c) {
    Tl2Tx tx(space);
    for (int i = 0; i < kIters; ++i) {
      for (;;) {
        tx.begin(c);
        try {
          const auto v = tx.read(c, counter.addr());
          tx.write(c, counter.addr(), v + 1);
          tx.commit(c);
          break;
        } catch (const StmAbort&) {
          c.compute(150);
        }
      }
    }
  }});
  EXPECT_EQ(counter.peek(m), static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Tl2, ReadOnlyTransactionsAreCheapAndNeverBlockEachOther) {
  Machine m;
  Tl2Space space(m);
  auto cells = SharedArray<std::uint64_t>::alloc(m, 64, 5);
  std::uint64_t aborts_total = 0;
  m.run({.threads = 8, .body = [&](Context& c) {
    Tl2Tx tx(space);
    for (int i = 0; i < 50; ++i) {
      tx.begin(c);
      std::uint64_t sum = 0;
      for (int j = 0; j < 64; ++j) sum += tx.read(c, cells.addr(j));
      tx.commit(c);
      EXPECT_EQ(sum, 64u * 5u);
    }
    aborts_total += tx.stats().aborts;
  }});
  EXPECT_EQ(aborts_total, 0u);
}

// Property test: a bank-transfer invariant under concurrent TL2 updates.
TEST(Tl2, MoneyConservationProperty) {
  Machine m;
  Tl2Space space(m);
  constexpr int kAccounts = 32;
  constexpr std::uint64_t kInitial = 1000;
  auto accounts = SharedArray<std::uint64_t>::alloc(m, kAccounts, kInitial);
  m.run({.threads = 8, .body = [&](Context& c) {
    Tl2Tx tx(space);
    sim::Xoshiro256 rng(99 + c.tid());
    for (int i = 0; i < 200; ++i) {
      const std::size_t from = rng.next_below(kAccounts);
      const std::size_t to = rng.next_below(kAccounts);
      const std::uint64_t amt = rng.next_below(20);
      for (;;) {
        tx.begin(c);
        try {
          const auto f = tx.read(c, accounts.addr(from));
          const auto t = tx.read(c, accounts.addr(to));
          if (f >= amt && from != to) {
            tx.write(c, accounts.addr(from), f - amt);
            tx.write(c, accounts.addr(to), t + amt);
          }
          tx.commit(c);
          break;
        } catch (const StmAbort&) {
          c.compute(200);
        }
      }
    }
  }});
  std::uint64_t total = 0;
  for (int i = 0; i < kAccounts; ++i) total += accounts.at(i).peek(m);
  EXPECT_EQ(total, static_cast<std::uint64_t>(kAccounts) * kInitial);
}

TEST(Tl2, InstrumentationCostsMoreThanPlainAccess) {
  // The Figure 2 single-thread story: TL2 reads are ~3 shared accesses.
  Machine m;
  Tl2Space space(m);
  auto cells = SharedArray<std::uint64_t>::alloc(m, 256, 1);
  sim::Cycles plain_t = 0, stm_t = 0;
  m.run({.threads = 1, .body = [&](Context& c) {
    // Warm the cache identically first.
    for (int j = 0; j < 256; ++j) (void)c.load(cells.addr(j));
    sim::Cycles t0 = c.now();
    for (int j = 0; j < 256; ++j) (void)c.load(cells.addr(j));
    plain_t = c.now() - t0;

    Tl2Tx tx(space);
    tx.begin(c);
    t0 = c.now();
    for (int j = 0; j < 256; ++j) (void)tx.read(c, cells.addr(j));
    stm_t = c.now() - t0;
    tx.commit(c);
  }});
  EXPECT_GT(stm_t, 2 * plain_t);
}

}  // namespace
}  // namespace tsxhpc::stm
