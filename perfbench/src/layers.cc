#include "layers.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "sim/machine.h"
#include "sim/shared.h"
#include "sync/elision.h"
#include "sync/locks.h"
#include "tmlib/tm.h"

namespace perfbench {

namespace sim = tsxhpc::sim;
namespace tsync = tsxhpc::sync;
namespace tmlib = tsxhpc::tmlib;

using sim::Addr;
using sim::Context;
using sim::Machine;

namespace {

constexpr int kReps = 5;  // batches per figure; the median is kept
constexpr Addr kLine = 64;

using Body = std::function<void(Context&)>;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double median_of(F&& batch) {
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) v.push_back(batch());
  return median(v);
}

double ns_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Host ns of one Machine::run of `threads` simulated threads on a fresh
/// fiber-backend machine. `prepare` allocates what the body needs and
/// returns the body; neither it nor machine construction is timed.
double time_region(int threads, const std::function<Body(Machine&)>& prepare,
                   sim::RunStats* stats = nullptr,
                   sim::Telemetry* tel = nullptr) {
  sim::MachineConfig cfg;
  cfg.backend = sim::BackendKind::kFiber;
  cfg.telemetry = tel;
  Machine m(cfg);
  sim::RunSpec spec;
  spec.threads = threads;
  spec.body = prepare(m);
  const auto t0 = std::chrono::steady_clock::now();
  sim::RunStats rs = m.run(spec);
  const double ns = ns_since(t0);
  if (stats) *stats = std::move(rs);
  return ns;
}

/// `sweeps` passes of one-word loads over `lines` consecutive lines.
std::function<Body(Machine&)> sweep_loads(std::size_t lines, int sweeps) {
  return [lines, sweeps](Machine& m) -> Body {
    const Addr base = m.alloc(lines * kLine);
    return [base, lines, sweeps](Context& c) {
      for (int s = 0; s < sweeps; ++s) {
        for (std::size_t i = 0; i < lines; ++i) c.load(base + i * kLine);
      }
    };
  };
}

/// ns per access of a single-thread load sweep.
double load_ns(std::size_t lines, int sweeps) {
  return median_of([&] {
    sim::RunStats rs;
    const double ns = time_region(1, sweep_loads(lines, sweeps), &rs);
    return ns / static_cast<double>(rs.total().mem_accesses);
  });
}

void measure_engine(LayerCosts& out) {
  constexpr int kThreads = 8;
  constexpr int kSteps = 20000;  // compute(50) calls per fiber
  constexpr sim::Cycles kStep = 50;
  const auto lockstep = [](int steps) {
    return [steps](Machine&) -> Body {
      return [steps](Context& c) {
        for (int i = 0; i < steps; ++i) c.compute(kStep);
      };
    };
  };
  const double quantum = static_cast<double>(sim::MachineConfig{}.sched_quantum);
  const double handoffs = kThreads * kSteps * kStep / quantum;
  out.handoff_ns = median_of([&] {
    const double a = time_region(kThreads, lockstep(kSteps));
    const double b = time_region(1, lockstep(kThreads * kSteps));
    return (a - b) / handoffs;
  });

  constexpr int kRounds = 5000;
  const auto ping_pong = [](Machine& m) -> Body {
    const auto turn = sim::Shared<std::uint32_t>::alloc(m, 0);
    return [turn](Context& c) {
      const auto me = static_cast<std::uint32_t>(c.tid());
      for (int i = 0; i < kRounds; ++i) {
        while (turn.load(c) != me) c.futex_wait(turn.addr(), 1 - me);
        turn.store(c, 1 - me);
        c.futex_wake(turn.addr(), 1);
      }
    };
  };
  out.block_wake_ns = median_of([&] {
    sim::RunStats rs;
    const double ns = time_region(2, ping_pong, &rs);
    return ns / static_cast<double>(std::max<std::uint64_t>(
                    1, rs.total().futex_waits));
  });
}

void measure_memory(LayerCosts& out) {
  // Footprints against the 32 KB / 8-way L1 and 40 KB / 10-way LLC: 16 KB
  // stays in L1; 36 KB (9 lines a set) misses an LRU L1 on every access
  // but fits the LLC; 128 KB misses both.
  out.l1_hit_ns = load_ns(256, 400);
  out.llc_hit_ns = load_ns(576, 90);
  out.dram_ns = load_ns(2048, 25);

  // Two fibers on two cores store to 8 lines in turn (yield after each
  // store). Sharing the lines makes every store a transfer; the private
  // variant makes the same calls as L1 hits.
  constexpr int kStores = 20000;
  const auto turns = [](bool shared) {
    return [shared](Machine& m) -> Body {
      const Addr base = m.alloc(16 * kLine);
      return [base, shared](Context& c) {
        const Addr mine = shared ? base : base + 8 * kLine * c.tid();
        for (int i = 0; i < kStores; ++i) {
          c.store(mine + (i % 8) * kLine, i);
          c.yield();
        }
      };
    };
  };
  out.xfer_ns = out.l1_hit_ns + median_of([&] {
    sim::RunStats rs;
    const double a = time_region(2, turns(true), &rs);
    const double b = time_region(2, turns(false));
    return (a - b) / static_cast<double>(
                         std::max<std::uint64_t>(1, rs.total().xfers_in));
  });

  constexpr int kCopies = 1000;
  constexpr std::size_t kBytes = 4096;
  out.bulk_ns_per_line = median_of([&] {
    const double ns = time_region(1, [](Machine& m) -> Body {
      const Addr base = m.alloc(kBytes);
      return [base](Context& c) {
        std::vector<std::uint8_t> buf(kBytes);
        for (int i = 0; i < kCopies; ++i) c.load_bytes(base, buf.data(), kBytes);
      };
    });
    return ns / (kCopies * (kBytes / kLine));
  });
}

/// Host ns per transaction of begin + `lines` stores + commit, minus the
/// same stores made outside a transaction.
double commit_ns(std::size_t lines, int iters) {
  const auto stores = [lines, iters](bool txn) {
    return [lines, iters, txn](Machine& m) -> Body {
      const Addr base = m.alloc(256 * kLine);
      return [base, lines, iters, txn](Context& c) {
        for (int i = 0; i < iters; ++i) {
          if (txn) c.xbegin();
          for (std::size_t j = 0; j < lines; ++j) c.store(base + j * kLine, i);
          if (txn) c.xend();
        }
      };
    };
  };
  return median_of([&] {
    return (time_region(1, stores(true)) - time_region(1, stores(false))) /
           iters;
  });
}

void measure_tsx(LayerCosts& out) {
  out.commit_ns_l1 = commit_ns(1, 20000);
  out.commit_ns_l16 = commit_ns(16, 4000);
  out.commit_ns_l256 = commit_ns(256, 300);

  constexpr int kAborts = 10000;
  const auto aborting = [](bool txn) {
    return [txn](Machine& m) -> Body {
      const Addr base = m.alloc(kLine);
      return [base, txn](Context& c) {
        for (int i = 0; i < kAborts; ++i) {
          if (!txn) {
            c.store(base, i);
            continue;
          }
          try {
            c.xbegin();
            c.store(base, i);
            c.xabort(1);
          } catch (const sim::TxAbort&) {
          }
        }
      };
    };
  };
  out.abort_ns = median_of([&] {
    return (time_region(1, aborting(true)) - time_region(1, aborting(false))) /
           kAborts;
  });

  // Thread 0 reads a line transactionally and yields; thread 1 then stores
  // to that line (dooming the reader) or to a private one (it commits).
  constexpr int kDooms = 5000;
  const auto dooming = [](bool conflict) {
    return [conflict](Machine& m) -> Body {
      const Addr base = m.alloc(2 * kLine);
      return [base, conflict](Context& c) {
        for (int i = 0; i < kDooms; ++i) {
          if (c.tid() == 1) {
            c.store(conflict ? base : base + kLine, i);
            c.yield();
            continue;
          }
          try {
            c.xbegin();
            c.load(base);
            c.yield();
            c.xend();
          } catch (const sim::TxAbort&) {
          }
        }
      };
    };
  };
  out.doom_ns = median_of([&] {
    sim::RunStats rs;
    const double a = time_region(2, dooming(true), &rs);
    const double b = time_region(2, dooming(false));
    return (a - b) / static_cast<double>(std::max<std::uint64_t>(
                         1, rs.total().tx_doomed_by_remote));
  });
}

constexpr int kSyncOps = 20000;

/// kSyncOps uncontended ElidedLock::critical calls with empty bodies.
std::function<Body(Machine&)> elided_sections() {
  return [](Machine& m) -> Body {
    auto lock = std::make_shared<tsync::ElidedLock>(m);
    return [lock](Context& c) {
      for (int i = 0; i < kSyncOps; ++i) lock->critical(c, [] {});
    };
  };
}

void measure_sync(LayerCosts& out) {
  out.elided_ns =
      median_of([&] { return time_region(1, elided_sections()) / kSyncOps; });
  out.spin_ns = median_of([&] {
    return time_region(1, [](Machine& m) -> Body {
      auto lock = std::make_shared<tsync::SpinLock>(m);
      return [lock](Context& c) {
        for (int i = 0; i < kSyncOps; ++i) {
          tsync::Guard<tsync::SpinLock> g(c, *lock);
        }
      };
    }) / kSyncOps;
  });
  out.atomic_ns = median_of([&] {
    return time_region(1, [](Machine& m) -> Body {
      const auto cell = sim::Shared<std::uint64_t>::alloc(m, 0);
      return [cell](Context& c) {
        for (int i = 0; i < kSyncOps; ++i) cell.fetch_add(c, 1);
      };
    }) / kSyncOps;
  });
}

/// A batch of `iters` atomic regions, each with `reads` annotated reads
/// and `writes` annotated writes, under scheme `b`.
std::function<Body(Machine&)> regions(tmlib::Backend b, int reads, int writes,
                                      int iters) {
  return [b, reads, writes, iters](Machine& m) -> Body {
    auto rt = std::make_shared<tmlib::TmRuntime>(m, b);
    const Addr cells = m.alloc(64 * kLine);
    return [rt, cells, reads, writes, iters](Context& c) {
      tmlib::TmThread t(*rt, c);
      for (int i = 0; i < iters; ++i) {
        t.atomic([&](tmlib::TmAccess& tm) {
          for (int r = 0; r < reads; ++r) tm.read(cells + r * kLine);
          for (int w = 0; w < writes; ++w) {
            tm.write(cells + (32 + w) * kLine, static_cast<std::uint64_t>(i));
          }
        });
      }
    };
  };
}

void measure_cc(LayerCosts& out) {
  // Fit per scheme from regions with 1+1, 1+17 and 17+1 accesses; the three
  // batches of one repetition run back to back.
  constexpr int kIters = 2000;
  constexpr int kMore = 16;
  for (tmlib::Backend b : tmlib::all_backends()) {
    std::vector<double> region, read, write;
    for (int r = 0; r < kReps; ++r) {
      const double base = time_region(1, regions(b, 1, 1, kIters)) / kIters;
      const double rd =
          (time_region(1, regions(b, 1 + kMore, 1, kIters)) / kIters - base) /
          kMore;
      const double wr =
          (time_region(1, regions(b, 1, 1 + kMore, kIters)) / kIters - base) /
          kMore;
      read.push_back(rd);
      write.push_back(wr);
      region.push_back(base - rd - wr);
    }
    out.cc[tmlib::to_string(b)] = {median(region), median(read), median(write)};
  }
}

void measure_telemetry(LayerCosts& out) {
  // Attached and detached batches alternate; the median difference is kept.
  constexpr std::size_t kLines = 256;
  constexpr int kSweeps = 400;
  sim::Telemetry tel;
  out.tel_access_overhead_ns = median_of([&] {
    const double a = time_region(1, sweep_loads(kLines, kSweeps), nullptr, &tel);
    const double b = time_region(1, sweep_loads(kLines, kSweeps));
    return (a - b) / (kLines * kSweeps);
  });
  out.tel_section_overhead_ns = median_of([&] {
    const double a = time_region(1, elided_sections(), nullptr, &tel);
    const double b = time_region(1, elided_sections());
    return (a - b) / kSyncOps;
  });
}

void measure_heap(LayerCosts& out) {
  constexpr int kAllocs = 2000;
  out.alloc_ns = median_of([&] {
    sim::MachineConfig cfg;
    cfg.backend = sim::BackendKind::kFiber;
    Machine m(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kAllocs; ++i) {
      m.alloc(sim::AllocSpec{.name = "perfbench/obj", .bytes = 64});
    }
    return ns_since(t0) / kAllocs;
  });
}

}  // namespace

LayerCosts measure_layers(Spans& spans, int parent) {
  LayerCosts out;
  const auto timed = [&](const char* name, const std::function<void()>& f) {
    const int id = spans.open(name, "layer", parent);
    f();
    spans.close(id);
  };
  timed("engine", [&] { measure_engine(out); });
  timed("memory", [&] { measure_memory(out); });
  timed("tsx", [&] { measure_tsx(out); });
  timed("sync", [&] { measure_sync(out); });
  timed("cc", [&] { measure_cc(out); });
  timed("telemetry", [&] { measure_telemetry(out); });
  timed("heap", [&] { measure_heap(out); });
  return out;
}

}  // namespace perfbench
