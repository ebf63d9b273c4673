// Per-layer host cost, measured from outside each layer: every figure is
// the median over several batches of calls into one layer's public API,
// on a fresh single-host-thread Machine, divided by the operations the
// batch made. Differential figures subtract a batch that makes the same
// calls without the mechanism being priced.
#pragma once

#include <map>
#include <string>

#include "spans.h"

namespace perfbench {

struct CcCost {
  double region_ns = 0;  // begin + commit of an atomic region
  double read_ns = 0;    // one annotated read, including its memory access
  double write_ns = 0;   // one annotated write, including its memory access
};

struct LayerCosts {
  // engine (src/sim engine + fiber backend)
  double handoff_ns = 0;     // one token handoff among 8 lockstep fibers
  double block_wake_ns = 0;  // one futex_wait that blocks, plus its wake
  // memory (MemorySystem access path, CacheLevel, SharedHeap)
  double l1_hit_ns = 0;
  double xfer_ns = 0;
  double llc_hit_ns = 0;
  double dram_ns = 0;
  double bulk_ns_per_line = 0;  // Context::load_bytes, per cache line
  // tsx (MemorySystem tx_* via Context): transaction minus the same stores
  // made outside one
  double commit_ns_l1 = 0;
  double commit_ns_l16 = 0;
  double commit_ns_l256 = 0;
  double abort_ns = 0;  // xbegin + xabort + rollback + TxAbort unwind
  double doom_ns = 0;   // a remote store dooming a reader, per doom
  // sync, uncontended with empty bodies
  double elided_ns = 0;
  double spin_ns = 0;
  double atomic_ns = 0;
  // cc (src/stm + src/tmlib CcBackend), by scheme name
  std::map<std::string, CcCost> cc;
  // telemetry: attached minus detached
  double tel_access_overhead_ns = 0;
  double tel_section_overhead_ns = 0;
  // heap (sim/alloc): one named Machine::alloc
  double alloc_ns = 0;

  /// Marginal host cost of one more line in a committed transaction.
  double tsx_per_line_ns() const {
    return (commit_ns_l256 - commit_ns_l16) / 240.0;
  }
};

/// Run every layer microbenchmark, recording one span per batch series under
/// `parent`.
LayerCosts measure_layers(Spans& spans, int parent);

}  // namespace perfbench
