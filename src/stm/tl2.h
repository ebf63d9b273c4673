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
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/context.h"
#include "sim/machine.h"
#include "sim/shared.h"
#include "stm/stm.h"

namespace tsxhpc::stm {

using sim::Addr;
using sim::Context;
using sim::Machine;

/// Shared STM metadata: the global version clock and the stripe lock table.
class Tl2Space {
 public:
  /// `stripes` must be a power of two. Each versioned write-lock covers one
  /// stripe of the address space (stripe = addr >> shift).
  Tl2Space(Machine& m, std::size_t stripes = 1 << 16, unsigned shift = 3)
      : shift_(shift),
        mask_(stripes - 1),
        clock_(sim::Shared<std::uint64_t>::alloc(m, {.name = "tl2/clock"}, 2)),
        locks_(sim::SharedArray<std::uint64_t>::alloc(m, {.name = "tl2/stripes"}, stripes, 2)) {
    if ((stripes & (stripes - 1)) != 0) {
      throw sim::SimError("TL2 stripe count must be a power of two");
    }
  }

  // Versioned lock encoding: bit0 = locked; otherwise value = version
  // (even). Initial version 2.
  sim::Shared<std::uint64_t> lock_for(Addr a) const {
    return locks_.at((a >> shift_) & mask_);
  }
  sim::Shared<std::uint64_t> clock() const { return clock_; }

 private:
  unsigned shift_;
  std::size_t mask_;
  sim::Shared<std::uint64_t> clock_;
  sim::SharedArray<std::uint64_t> locks_;
};

/// Per-thread TL2 transaction descriptor.
class Tl2Tx {
 public:
  explicit Tl2Tx(Tl2Space& space) : space_(space) {}

  void begin(Context& c) {
    read_set_.clear();
    write_map_.clear();
    write_log_.clear();
    commit_actions_.clear();
    rv_ = space_.clock().load(c);
    if (rv_ & 1) rv_ ^= 1;  // snapshot must be even (unlocked)
    active_ = true;
    starts_++;
  }

  /// Register an action to run iff this transaction commits (e.g. deferred
  /// frees from a TM-aware allocator). Discarded on abort.
  void on_commit(std::function<void(Context&)> action) {
    commit_actions_.push_back(std::move(action));
  }

  std::uint64_t read(Context& c, Addr a, unsigned size = 8) {
    // Write-set lookup first (read-your-writes).
    if (!write_map_.empty()) {
      if (auto it = write_map_.find(detail::word_key(a));
          it != write_map_.end()) {
        return detail::word_extract(write_log_[it->second].value, a, size);
      }
    }
    auto lock = space_.lock_for(a);
    const std::uint64_t v1 = lock.load(c);
    const std::uint64_t value = c.load(a, size);
    const std::uint64_t v2 = lock.load(c);
    if ((v1 & 1) != 0 || v1 != v2 || v1 > rv_) {
      abort_tx(c, StmAbortKind::kReadValidation);
    }
    read_set_.push_back(lock.addr());
    c.compute(kBookkeeping);
    return value;
  }

  void write(Context& c, Addr a, std::uint64_t value, unsigned size = 8) {
    const Addr k = detail::word_key(a);
    auto [it, fresh] = write_map_.try_emplace(k, write_log_.size());
    if (fresh) {
      // Load the enclosing word so sub-word writes merge correctly at
      // write-back time (real TL2 logs at word granularity too).
      write_log_.push_back({k, c.load(k, 8)});
    }
    write_log_[it->second].value =
        detail::word_insert(write_log_[it->second].value, a, value, size);
    c.compute(kBookkeeping);
  }

  /// Commit. Throws StmAbort on validation failure (state already reset).
  void commit(Context& c) {
    if (write_log_.empty()) {
      // Read-only fast path: reads already validated against rv_.
      active_ = false;
      commits_++;
      run_commit_actions(c);
      return;
    }
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
    for (const auto& w : write_log_) c.store(w.addr, w.value, 8);
    release_locks(c, lock_addrs, lock_addrs.size(), wv);
    active_ = false;
    commits_++;
    run_commit_actions(c);
  }

  bool active() const { return active_; }
  std::uint64_t starts() const { return starts_; }
  std::uint64_t commits() const { return commits_; }
  std::uint64_t aborts() const { return aborts_; }

 private:
  struct WriteEntry {
    Addr addr;  // word-aligned
    std::uint64_t value;
  };

  void release_locks(Context& c, const std::vector<Addr>& addrs,
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

  [[noreturn]] void abort_tx(Context& c, StmAbortKind kind) {
    active_ = false;
    aborts_++;
    commit_actions_.clear();
    c.compute(kAbortPenalty);
    throw StmAbort{kind};
  }

  static constexpr sim::Cycles kBookkeeping = 6;
  static constexpr sim::Cycles kAbortPenalty = 120;

  void run_commit_actions(Context& c) {
    for (auto& action : commit_actions_) action(c);
    commit_actions_.clear();
  }

  Tl2Space& space_;
  std::uint64_t rv_ = 0;
  bool active_ = false;
  std::vector<Addr> read_set_;
  std::unordered_map<Addr, std::size_t> write_map_;
  std::vector<WriteEntry> write_log_;
  std::vector<std::function<void(Context&)>> commit_actions_;
  std::uint64_t starts_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t aborts_ = 0;
};

}  // namespace tsxhpc::stm
