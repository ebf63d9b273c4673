// Unit and property tests for the TicToc timestamp-ordering OCC.
#include <gtest/gtest.h>

#include "sim/rng.h"
#include "stm/tictoc.h"

namespace tsxhpc::stm {
namespace {

using sim::Context;
using sim::Machine;
using sim::Shared;
using sim::SharedArray;

TEST(TicToc, TsWordPackingRoundTrips) {
  for (std::uint64_t wts :
       {std::uint64_t{0}, std::uint64_t{2}, std::uint64_t{1000},
        TicTocSpace::kWtsMax}) {
    for (std::uint64_t delta :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{77}}) {
      for (bool locked : {false, true}) {
        const std::uint64_t w = TicTocSpace::pack(wts, wts + delta, locked);
        EXPECT_EQ(TicTocSpace::wts(w), wts);
        EXPECT_EQ(TicTocSpace::rts(w), wts + delta);
        EXPECT_EQ(TicTocSpace::locked(w), locked);
      }
    }
  }
  // The delta field saturates instead of overflowing into garbage.
  const std::uint64_t w =
      TicTocSpace::pack(10, 10 + TicTocSpace::kDeltaMax + 5, false);
  EXPECT_EQ(TicTocSpace::wts(w), 10u);
  EXPECT_EQ(TicTocSpace::rts(w), 10 + TicTocSpace::kDeltaMax);
}

TEST(TicToc, ReadYourOwnWrites) {
  Machine m;
  TicTocSpace space(m);
  auto cell = Shared<std::uint64_t>::alloc(m, 3);
  m.run({.threads = 1, .body = [&](Context& c) {
    TicTocTx tx(space);
    tx.begin(c);
    EXPECT_EQ(tx.read(c, cell.addr()), 3u);
    tx.write(c, cell.addr(), 9);
    EXPECT_EQ(tx.read(c, cell.addr()), 9u);
    EXPECT_EQ(cell.peek(m), 3u) << "no write-back before commit";
    tx.commit(c);
  }});
  EXPECT_EQ(cell.peek(m), 9u);
}

TEST(TicToc, SubWordWritesMerge) {
  Machine m;
  TicTocSpace space(m);
  sim::Addr a = m.alloc(8);
  m.heap().write_word(a, 0x1111111111111111ULL, 8);
  m.run({.threads = 1, .body = [&](Context& c) {
    TicTocTx tx(space);
    tx.begin(c);
    tx.write(c, a, 0xAB, 1);
    tx.write(c, a + 4, 0xCDEF, 2);
    EXPECT_EQ(tx.read(c, a, 1), 0xABu);
    tx.commit(c);
  }});
  EXPECT_EQ(m.heap().read_word(a, 8), 0x1111CDEF111111ABULL);
}

TEST(TicToc, RtsExtensionSavesMerelyOldReads) {
  // Thread 0 reads A early, then commits a write to B *after* thread 1 has
  // advanced B's timestamps. Its commit_ts exceeds A's rts, but A itself
  // never changed — TicToc extends A's rts in place instead of aborting
  // (TL2 would abort here: the clock moved past the snapshot).
  sim::MachineConfig cfg;
  cfg.sched_quantum = 0;
  Machine m(cfg);
  TicTocSpace space(m);
  auto a = Shared<std::uint64_t>::alloc(m, 1);
  auto b = Shared<std::uint64_t>::alloc(m, 2);
  std::uint64_t extensions = 0, aborts = 0;
  m.run({.bodies = {
      [&](Context& c) {
        TicTocTx tx(space);
        tx.begin(c);
        (void)tx.read(c, a.addr());
        for (int i = 0; i < 100; ++i) c.compute(100);  // let thread 1 commit
        tx.write(c, b.addr(), 20);
        tx.commit(c);
        extensions = tx.stats().read_set_extensions;
        aborts = tx.stats().aborts;
      },
      [&](Context& c) {
        c.compute(500);
        TicTocTx tx(space);
        tx.begin(c);
        (void)tx.read(c, b.addr());
        tx.write(c, b.addr(), 10);
        tx.commit(c);
      },
  }});
  EXPECT_EQ(aborts, 0u);
  EXPECT_GE(extensions, 1u);
  EXPECT_EQ(b.peek(m), 20u);
}

class TicTocModes : public ::testing::TestWithParam<TicTocReadMode> {};

TEST_P(TicTocModes, CounterIncrementsAreLinearizable) {
  Machine m;
  TicTocSpace space(m);
  auto counter = Shared<std::uint64_t>::alloc(m, 0);
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  m.run({.threads = kThreads, .body = [&](Context& c) {
    TicTocTx tx(space, GetParam());
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

TEST_P(TicTocModes, MoneyConservationProperty) {
  Machine m;
  TicTocSpace space(m);
  constexpr int kAccounts = 32;
  constexpr std::uint64_t kInitial = 1000;
  auto accounts = SharedArray<std::uint64_t>::alloc(m, kAccounts, kInitial);
  m.run({.threads = 8, .body = [&](Context& c) {
    TicTocTx tx(space, GetParam());
    sim::Xoshiro256 rng(99 + c.tid());
    for (int i = 0; i < 150; ++i) {
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

INSTANTIATE_TEST_SUITE_P(Modes, TicTocModes,
                         ::testing::Values(TicTocReadMode::kOcc,
                                           TicTocReadMode::kLock,
                                           TicTocReadMode::kHybrid),
                         [](const ::testing::TestParamInfo<TicTocReadMode>&
                                info) { return to_string(info.param); });

TEST(TicToc, HybridLocksReadsOnlyOnRetriesAfterAnAbort) {
  // kHybrid switches by itself: optimistic on a region's first attempt,
  // locking reads on the retry after an abort, optimistic again once the
  // region has committed.
  Machine m;
  TicTocSpace space(m);
  auto cell = Shared<std::uint64_t>::alloc(m, 7);
  const auto ts = space.word_for(cell.addr());
  m.run({.threads = 1, .body = [&](Context& c) {
    TicTocTx tx(space, TicTocReadMode::kHybrid);
    EXPECT_EQ(tx.stats().scheme, "tictoc-hybrid");

    tx.begin(c);
    EXPECT_EQ(tx.read(c, cell.addr()), 7u);
    EXPECT_FALSE(TicTocSpace::locked(ts.peek(m)))
        << "the first attempt reads optimistically";
    // Lock the stripe by hand, as a concurrent committer would: the
    // optimistic re-read aborts no-wait.
    const std::uint64_t unlocked = ts.peek(m);
    ts.init(m, unlocked | 1);
    try {
      (void)tx.read(c, cell.addr());
      ADD_FAILURE() << "an optimistic read of a locked stripe must abort";
    } catch (const StmAbort& a) {
      EXPECT_EQ(a.kind, StmAbortKind::kLockAcquire);
    }
    ts.init(m, unlocked);

    tx.begin(c);
    EXPECT_EQ(tx.read(c, cell.addr()), 7u);
    EXPECT_TRUE(TicTocSpace::locked(ts.peek(m)))
        << "the retry holds its read stripe";
    tx.commit(c);
    EXPECT_FALSE(TicTocSpace::locked(ts.peek(m)));

    tx.begin(c);
    EXPECT_EQ(tx.read(c, cell.addr()), 7u);
    EXPECT_FALSE(TicTocSpace::locked(ts.peek(m)))
        << "the next region reads optimistically again";
    tx.commit(c);

    EXPECT_EQ(tx.stats().starts, 3u);
    EXPECT_EQ(tx.stats().commits, 2u);
    EXPECT_EQ(tx.stats().aborts, 1u);
    EXPECT_EQ(tx.stats().aborts_lock_acquire, 1u);
  }});
}

TEST(TicToc, LockModeReadOfHeldStripeAbortsNoWait) {
  // No-wait read locking: a stripe held by another transaction aborts the
  // reader immediately (lock_acquire class) instead of deadlocking.
  sim::MachineConfig cfg;
  cfg.sched_quantum = 0;
  Machine m(cfg);
  TicTocSpace space(m);
  auto cell = Shared<std::uint64_t>::alloc(m, 7);
  StmAbortKind kind = StmAbortKind::kReadValidation;
  bool aborted = false;
  m.run({.bodies = {
      [&](Context& c) {
        TicTocTx tx(space, TicTocReadMode::kLock);
        tx.begin(c);
        (void)tx.read(c, cell.addr());  // holds the stripe read lock
        for (int i = 0; i < 100; ++i) c.compute(100);
        tx.commit(c);
      },
      [&](Context& c) {
        c.compute(500);
        TicTocTx tx(space, TicTocReadMode::kLock);
        tx.begin(c);
        try {
          (void)tx.read(c, cell.addr());
          tx.commit(c);
        } catch (const StmAbort& a) {
          aborted = true;
          kind = a.kind;
        }
      },
  }});
  EXPECT_TRUE(aborted);
  EXPECT_EQ(kind, StmAbortKind::kLockAcquire);
}

}  // namespace
}  // namespace tsxhpc::stm
