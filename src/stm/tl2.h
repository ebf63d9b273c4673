// TL2-style software transactional memory (Dice, Shalev & Shavit, DISC'06) —
// the STM the paper compares against on STAMP (its "tl2" series).
//
// Faithful to the algorithm's structure and, critically, to its *cost
// profile*: every transactional load checks a versioned write-lock, reads
// the value, and re-checks (3 simulated shared accesses + bookkeeping);
// commits acquire per-stripe locks, validate the read set against the
// global version clock, write back, and release. This is exactly the
// instrumentation overhead that makes STM slow at one thread in Figure 2.
//
// Like real TL2 (and unlike RTM), only *annotated* accesses are tracked:
// workloads route TM_READ/TM_WRITE through this class and may do untracked
// accesses elsewhere — e.g. labyrinth's private grid copy.
//
// The redo log, commit actions, abort path and counters are the StmTx base
// (stm.h). MVCC (mvcc.h) is built on this file: it reuses the space, begin
// and the update commit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/machine.h"
#include "sim/shared.h"
#include "stm/stm.h"

namespace tsxhpc::stm {

/// Shared STM metadata: the global version clock and the stripe lock table.
class Tl2Space {
 public:
  /// `stripes` must be a power of two. Each versioned write-lock covers one
  /// stripe of the address space (stripe = addr >> shift).
  explicit Tl2Space(Machine& m, std::size_t stripes = 1 << 16,
                    unsigned shift = 3)
      : Tl2Space(m, "tl2", stripes, shift) {}

  // Versioned lock encoding: bit0 = locked; otherwise value = version
  // (even). Initial version 2.
  sim::Shared<std::uint64_t> lock_for(Addr a) const {
    return locks_.at((a >> shift_) & mask_);
  }
  sim::Shared<std::uint64_t> clock() const { return clock_; }

 protected:
  /// Allocates `<scheme>/clock`, then `<scheme>/stripes`.
  Tl2Space(Machine& m, std::string_view scheme, std::size_t stripes,
           unsigned shift)
      : shift_(shift),
        mask_(stripes - 1),
        clock_(sim::Shared<std::uint64_t>::alloc(
            m, {.name = std::string(scheme) + "/clock"}, 2)),
        locks_(sim::SharedArray<std::uint64_t>::alloc(
            m, {.name = std::string(scheme) + "/stripes"}, stripes, 2)) {
    if ((stripes & (stripes - 1)) != 0) {
      throw sim::SimError(std::string(scheme) +
                          " stripe count must be a power of two");
    }
  }

 private:
  unsigned shift_;
  std::size_t mask_;
  sim::Shared<std::uint64_t> clock_;
  sim::SharedArray<std::uint64_t> locks_;
};

/// Per-thread TL2 transaction descriptor over redo-log entries `Entry`
/// (`Tl2Tx` below; MVCC derives with its pre-image entries).
template <typename Entry>
class BasicTl2Tx : public StmTx<Entry> {
 public:
  explicit BasicTl2Tx(Tl2Space& space) : BasicTl2Tx(space, "tl2") {}

  void begin(Context& c) {
    read_set_.clear();
    start();
    rv_ = space_.clock().load(c);
    if (rv_ & 1) rv_ ^= 1;  // snapshot must be even (unlocked)
  }

  std::uint64_t read(Context& c, Addr a, unsigned size = 8) {
    std::uint64_t value = 0;
    if (buffered(a, size, &value)) return value;
    auto lock = space_.lock_for(a);
    const std::uint64_t v1 = lock.load(c);
    value = c.load(a, size);
    const std::uint64_t v2 = lock.load(c);
    if ((v1 & 1) != 0 || v1 != v2 || v1 > rv_) {
      abort_tx(c, StmAbortKind::kReadValidation);
    }
    read_set_.push_back(lock.addr());
    c.compute(kBookkeeping);
    return value;
  }

  /// Commit. Throws StmAbort on validation failure (state already reset).
  void commit(Context& c) {
    // Read-only transactions skip straight to the end: their reads were
    // already validated against rv_.
    if (!write_log_.empty()) {
      commit_update(c, [&](const Entry& w, std::uint64_t /*wv*/) {
        c.store(w.addr, w.value, 8);
      });
    }
    committed(c);
  }

 protected:
  using StmTx<Entry>::abort_tx;
  using StmTx<Entry>::buffered;
  using StmTx<Entry>::committed;
  using StmTx<Entry>::kBookkeeping;
  using StmTx<Entry>::start;
  using StmTx<Entry>::write_log_;

  BasicTl2Tx(Tl2Space& space, std::string_view scheme)
      : StmTx<Entry>(scheme), space_(space) {}

  /// The update commit: lock the write stripes, take a clock version wv,
  /// validate the read set, `store(entry, wv)` each logged word, release
  /// the stripes at wv. Returns wv.
  template <typename Store>
  std::uint64_t commit_update(Context& c, Store&& store) {
    // Acquire stripe locks (sorted to avoid deadlock; real TL2 uses bounded
    // spin + abort, sorting gives the same progress guarantee).
    std::vector<Addr> lock_addrs;
    lock_addrs.reserve(write_log_.size());
    for (const auto& w : write_log_) {
      lock_addrs.push_back(space_.lock_for(w.addr).addr());
    }
    std::sort(lock_addrs.begin(), lock_addrs.end());
    lock_addrs.erase(std::unique(lock_addrs.begin(), lock_addrs.end()),
                     lock_addrs.end());
    std::size_t got = 0;
    for (; got < lock_addrs.size(); ++got) {
      const std::uint64_t v = c.load(lock_addrs[got], 8);
      if ((v & 1) != 0 || v > rv_ ||
          !c.cas(lock_addrs[got], v, v | 1, 8)) {
        break;
      }
    }
    if (got != lock_addrs.size()) {
      release_locks(c, lock_addrs, got, /*new_version=*/0);
      abort_tx(c, StmAbortKind::kLockAcquire);
    }
    // Increment global clock, validate read set.
    const std::uint64_t wv = space_.clock().fetch_add(c, 2) + 2;
    if (wv != rv_ + 2) {
      for (Addr la : read_set_) {
        const std::uint64_t v = c.load(la, 8);
        const bool locked_by_us =
            (v & 1) != 0 &&
            std::binary_search(lock_addrs.begin(), lock_addrs.end(), la);
        if (((v & 1) != 0 && !locked_by_us) || (v & ~1ULL) > rv_) {
          release_locks(c, lock_addrs, lock_addrs.size(), 0);
          abort_tx(c, StmAbortKind::kCommitValidation);
        }
      }
    }
    // Write back and release with the new version.
    for (const auto& w : write_log_) store(w, wv);
    release_locks(c, lock_addrs, lock_addrs.size(), wv);
    return wv;
  }

  Tl2Space& space_;
  std::uint64_t rv_ = 0;
  std::vector<Addr> read_set_;  // stripe lock addresses

 private:
  static void release_locks(Context& c, const std::vector<Addr>& addrs,
                            std::size_t count, std::uint64_t new_version) {
    for (std::size_t i = 0; i < count; ++i) {
      if (new_version != 0) {
        c.store(addrs[i], new_version, 8);
      } else {
        const std::uint64_t v = c.load(addrs[i], 8);
        c.store(addrs[i], v & ~1ULL, 8);
      }
    }
  }
};

using Tl2Tx = BasicTl2Tx<WriteEntry>;

}  // namespace tsxhpc::stm
