// Multi-version concurrency control on top of the TL2-style stripe/clock
// skeleton — the ROADMAP's "MVCC layer with snapshot read-only transactions
// and epoch-based garbage collection" item, modeled on the sto
// MvRegistry/RBTree exemplars (per-thread registries, GC accounting).
//
// The update path is deliberately TL2-shaped (stripe write-locks, global
// version clock, commit-time read validation — serializable first-committer-
// wins, so cross-scheme workload checksums stay comparable and SI write-skew
// cannot creep in). What MVCC adds is the read path: overwritten values are
// preserved in host-side version chains, so *reads never abort* — a read
// that finds its stripe newer than the snapshot walks the chain for the
// version that was current at `rv` instead of throwing (a stripe still
// mid-publish is briefly waited out, since its commit may already be inside
// the snapshot). A
// transaction that never wrote therefore commits with zero validation work
// (`snapshot_commits` in the telemetry `cc` block) — the standard answer
// for read-mostly production traffic.
//
// Version chains are host-side bookkeeping, not simulated memory: a chain
// entry is the *pre-image* of a committed overwrite, keyed by the word
// address, stamped with the overwriting commit's clock value wv. The entry
// is appended *before* the new value is stored, so a concurrent snapshot
// reader always finds either the old memory value (commit not yet at this
// word) or the chain entry (commit past it) — both equal the value at rv.
// Chain walks are charged simulated compute per hop; they cost time, just
// not coherence traffic (the chain is thread-private history in real MVCC
// implementations too).
//
// Epoch GC: every kGcInterval update commits, the committer prunes entries
// no active snapshot can reach (wv <= min active rv, read from the
// per-thread registry) and is charged for the work; `gc_runs`/`gc_reclaims`
// are attributed to the triggering thread.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
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

/// Shared MVCC metadata: TL2-style stripe locks + clock, the host-side
/// version chains, and the per-thread active-snapshot registry.
class MvccSpace {
 public:
  MvccSpace(Machine& m, std::size_t stripes = 1 << 16, unsigned shift = 3)
      : shift_(shift),
        mask_(stripes - 1),
        clock_(
            sim::Shared<std::uint64_t>::alloc(m, {.name = "mvcc/clock"}, 2)),
        locks_(sim::SharedArray<std::uint64_t>::alloc(
            m, {.name = "mvcc/stripes"}, stripes, 2)) {
    if ((stripes & (stripes - 1)) != 0) {
      throw sim::SimError("MVCC stripe count must be a power of two");
    }
  }

  // Versioned lock encoding (same as TL2): bit0 = locked; else even version.
  sim::Shared<std::uint64_t> lock_for(Addr a) const {
    return locks_.at((a >> shift_) & mask_);
  }
  sim::Shared<std::uint64_t> clock() const { return clock_; }

  /// Per-thread snapshot registry (the MvRegistry idea): a transaction
  /// publishes its rv at begin and withdraws it at commit/abort; GC reads
  /// the minimum to find the reclamation horizon.
  void set_active(sim::ThreadId tid, std::uint64_t rv) { active_[tid] = rv; }
  void clear_active(sim::ThreadId tid) { active_.erase(tid); }

  /// Append the pre-image of word `addr`, overwritten by the commit at wv.
  void chain_append(Addr addr, std::uint64_t wv, std::uint64_t pre_image) {
    chains_[addr].push_back({wv, pre_image});
  }

  /// Find the value of `addr` at snapshot `rv`: the pre-image of the oldest
  /// overwrite newer than rv. Returns false (memory holds the value) if no
  /// such overwrite exists. `hops` counts entries inspected, `depth` the
  /// chain length.
  bool chain_lookup(Addr addr, std::uint64_t rv, std::uint64_t* value,
                    std::uint64_t* hops, std::uint64_t* depth) const {
    *hops = 0;
    *depth = 0;
    auto it = chains_.find(addr);
    if (it == chains_.end()) return false;
    const auto& chain = it->second;
    *depth = chain.size();
    // Entries ascend by wv; scan newest-first for the oldest entry with
    // wv > rv.
    bool found = false;
    for (auto e = chain.rbegin(); e != chain.rend(); ++e) {
      ++*hops;
      if (e->wv <= rv) break;
      *value = e->pre_image;
      found = true;
    }
    return found;
  }

  /// True every kGcInterval-th update commit — the GC cadence.
  bool note_update_commit() {
    return ++update_commits_ % kGcInterval == 0;
  }

  /// Prune every chain entry no active snapshot can reach (wv <= min active
  /// rv; `horizon` — the caller's wv — bounds it when no snapshot is live).
  /// Returns the number of entries reclaimed.
  std::uint64_t gc(std::uint64_t horizon) {
    std::uint64_t min_rv = horizon;
    for (const auto& [tid, rv] : active_) min_rv = std::min(min_rv, rv);
    std::uint64_t reclaimed = 0;
    for (auto it = chains_.begin(); it != chains_.end();) {
      auto& chain = it->second;
      auto keep = std::find_if(
          chain.begin(), chain.end(),
          [min_rv](const Version& v) { return v.wv > min_rv; });
      reclaimed += static_cast<std::uint64_t>(keep - chain.begin());
      chain.erase(chain.begin(), keep);
      it = chain.empty() ? chains_.erase(it) : std::next(it);
    }
    return reclaimed;
  }

  static constexpr std::uint64_t kGcInterval = 64;

 private:
  struct Version {
    std::uint64_t wv;         // clock value of the overwriting commit
    std::uint64_t pre_image;  // word value it replaced
  };

  unsigned shift_;
  std::size_t mask_;
  sim::Shared<std::uint64_t> clock_;
  sim::SharedArray<std::uint64_t> locks_;
  std::map<Addr, std::vector<Version>> chains_;  // ordered => deterministic
  std::map<sim::ThreadId, std::uint64_t> active_;
  std::uint64_t update_commits_ = 0;
};

/// Per-thread MVCC transaction descriptor.
class MvccTx {
 public:
  explicit MvccTx(MvccSpace& space) : space_(space) {}

  void begin(Context& c) {
    read_set_.clear();
    write_map_.clear();
    write_log_.clear();
    commit_actions_.clear();
    rv_ = space_.clock().load(c);
    if (rv_ & 1) rv_ ^= 1;  // snapshot must be even (unlocked)
    tid_ = c.tid();
    space_.set_active(tid_, rv_);
    active_ = true;
    starts_++;
  }

  /// Register an action to run iff this transaction commits. Discarded on
  /// abort.
  void on_commit(std::function<void(Context&)> action) {
    commit_actions_.push_back(std::move(action));
  }

  /// Snapshot read: never aborts. Fast path = TL2-style sandwich when the
  /// stripe is quiescent at or before rv; otherwise walk the version chain.
  std::uint64_t read(Context& c, Addr a, unsigned size = 8) {
    // Write-set lookup first (read-your-writes).
    if (!write_map_.empty()) {
      if (auto it = write_map_.find(detail::word_key(a));
          it != write_map_.end()) {
        return detail::word_extract(write_log_[it->second].value, a, size);
      }
    }
    auto lock = space_.lock_for(a);
    for (;;) {
      const std::uint64_t v1 = lock.load(c);
      if ((v1 & 1) != 0) {
        // A commit is publishing this stripe. Its wv may be at or below our
        // rv (the clock is bumped before the stores land), in which case
        // the snapshot INCLUDES it and neither memory nor the chain holds
        // the right value yet — wait out the short publish window. Not an
        // abort: reads still never fail.
        c.compute(kLockSpin);
        continue;
      }
      // Version-sandwiched memory load: `word` is the stripe's stable value
      // at version v1.
      const std::uint64_t word = c.load(detail::word_key(a), 8);
      const std::uint64_t v2 = lock.load(c);
      if (v1 != v2) continue;  // the stripe moved under us — recheck
      read_set_.push_back(lock.addr());
      if (v1 <= rv_) {
        c.compute(kBookkeeping);
        return detail::word_extract(word, a, size);
      }
      // The stripe is newer than rv. Update transactions recorded it above
      // — commit validation will see the too-new version and abort them
      // (first-committer-wins); the snapshot value itself comes from the
      // chain. Every overwrite of this word past rv appended its pre-image
      // before storing (and the stripe is quiescent), so a miss means the
      // sibling words moved the stripe and `word` is still the value at rv.
      // The lookup runs host-side directly after the sandwich, with no
      // yield in between.
      std::uint64_t value = 0, hops = 0, depth = 0;
      const bool in_chain = space_.chain_lookup(detail::word_key(a), rv_,
                                                &value, &hops, &depth);
      version_chain_hops_ += hops;
      version_chain_depth_max_ = std::max(version_chain_depth_max_, depth);
      c.compute(kBookkeeping + kChainHop * static_cast<sim::Cycles>(hops));
      return detail::word_extract(in_chain ? value : word, a, size);
    }
  }

  void write(Context& c, Addr a, std::uint64_t value, unsigned size = 8) {
    const Addr k = detail::word_key(a);
    auto [it, fresh] = write_map_.try_emplace(k, write_log_.size());
    if (fresh) {
      const std::uint64_t orig = c.load(k, 8);
      write_log_.push_back({k, orig, orig});
    }
    write_log_[it->second].value =
        detail::word_insert(write_log_[it->second].value, a, value, size);
    c.compute(kBookkeeping);
  }

  /// Commit. Read-only transactions commit for free (the snapshot *is* the
  /// serialization point); update transactions validate like TL2 and
  /// publish pre-images to the version chains.
  void commit(Context& c) {
    if (write_log_.empty()) {
      space_.clear_active(tid_);
      active_ = false;
      commits_++;
      snapshot_commits_++;
      run_commit_actions(c);
      return;
    }
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
      if ((v & 1) != 0 || v > rv_ || !c.cas(lock_addrs[got], v, v | 1, 8)) {
        break;
      }
    }
    if (got != lock_addrs.size()) {
      release_locks(c, lock_addrs, got, /*new_version=*/0);
      abort_tx(c, StmAbortKind::kLockAcquire);
    }
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
    // Publish: append each pre-image *before* storing the new value, so a
    // concurrent snapshot reader finds one or the other (both correct at
    // its rv — see the header comment).
    for (const auto& w : write_log_) {
      space_.chain_append(w.addr, wv, w.orig);
      versions_created_++;
      c.store(w.addr, w.value, 8);
    }
    release_locks(c, lock_addrs, lock_addrs.size(), wv);
    space_.clear_active(tid_);
    active_ = false;
    commits_++;
    if (space_.note_update_commit()) {
      const std::uint64_t reclaimed = space_.gc(wv);
      gc_runs_++;
      gc_reclaims_ += reclaimed;
      c.compute(kGcBase + kGcPerReclaim * static_cast<sim::Cycles>(reclaimed));
    }
    run_commit_actions(c);
  }

  bool active() const { return active_; }
  std::uint64_t starts() const { return starts_; }
  std::uint64_t commits() const { return commits_; }
  std::uint64_t aborts() const { return aborts_; }
  std::uint64_t aborts(StmAbortKind k) const {
    return aborts_by_kind_[static_cast<std::size_t>(k)];
  }
  std::uint64_t snapshot_commits() const { return snapshot_commits_; }
  std::uint64_t versions_created() const { return versions_created_; }
  std::uint64_t version_chain_hops() const { return version_chain_hops_; }
  std::uint64_t version_chain_depth_max() const {
    return version_chain_depth_max_;
  }
  std::uint64_t gc_runs() const { return gc_runs_; }
  std::uint64_t gc_reclaims() const { return gc_reclaims_; }

 private:
  struct WriteEntry {
    Addr addr;            // word-aligned
    std::uint64_t value;  // merged new value
    std::uint64_t orig;   // pre-image at first buffering (validated fresh)
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
    space_.clear_active(tid_);
    active_ = false;
    aborts_++;
    aborts_by_kind_[static_cast<std::size_t>(kind)]++;
    commit_actions_.clear();
    c.compute(kAbortPenalty);
    throw StmAbort{kind};
  }

  void run_commit_actions(Context& c) {
    for (auto& action : commit_actions_) action(c);
    commit_actions_.clear();
  }

  static constexpr sim::Cycles kBookkeeping = 6;
  static constexpr sim::Cycles kAbortPenalty = 120;
  static constexpr sim::Cycles kChainHop = 4;
  static constexpr sim::Cycles kLockSpin = 4;
  static constexpr sim::Cycles kGcBase = 40;
  static constexpr sim::Cycles kGcPerReclaim = 2;

  MvccSpace& space_;
  std::uint64_t rv_ = 0;
  sim::ThreadId tid_ = 0;
  bool active_ = false;
  std::vector<Addr> read_set_;
  std::unordered_map<Addr, std::size_t> write_map_;
  std::vector<WriteEntry> write_log_;
  std::vector<std::function<void(Context&)>> commit_actions_;
  std::uint64_t starts_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t aborts_ = 0;
  std::array<std::uint64_t, 3> aborts_by_kind_{};
  std::uint64_t snapshot_commits_ = 0;
  std::uint64_t versions_created_ = 0;
  std::uint64_t version_chain_hops_ = 0;
  std::uint64_t version_chain_depth_max_ = 0;
  std::uint64_t gc_runs_ = 0;
  std::uint64_t gc_reclaims_ = 0;
};

}  // namespace tsxhpc::stm
