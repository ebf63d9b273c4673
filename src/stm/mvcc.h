// Multi-version concurrency control built on TL2 (tl2.h) — the ROADMAP's
// "MVCC layer with snapshot read-only transactions and epoch-based garbage
// collection" item, modeled on the sto MvRegistry/RBTree exemplars
// (per-thread registries, GC accounting).
//
// `MvccSpace` is TL2's stripe/clock table (allocated as `mvcc/clock` and
// `mvcc/stripes`) plus the version chains and the snapshot registry.
// `MvccTx` reuses TL2's begin and its update commit (stripe write-locks,
// global version clock, commit-time read validation — serializable first-
// committer-wins, so cross-scheme workload checksums stay comparable and SI
// write-skew cannot creep in). It adds only three things:
//
//   * Snapshot reads that never abort. Overwritten values are preserved in
//     host-side version chains, so a read that finds its stripe newer than
//     the snapshot walks the chain for the version that was current at `rv`
//     instead of throwing (a stripe still mid-publish is briefly waited
//     out, since its commit may already be inside the snapshot). A
//     transaction that never wrote therefore commits with zero validation
//     work (`snapshot_commits` in the telemetry `cc` block) — the standard
//     answer for read-mostly production traffic.
//   * Pre-image publishing. A chain entry is the *pre-image* of a committed
//     overwrite, keyed by the word address, stamped with the overwriting
//     commit's clock value wv. The entry is appended *before* the new value
//     is stored, so a concurrent snapshot reader always finds either the
//     old memory value (commit not yet at this word) or the chain entry
//     (commit past it) — both equal the value at rv. Chains are host-side
//     bookkeeping, not simulated memory: walks are charged simulated
//     compute per hop; they cost time, just not coherence traffic (the
//     chain is thread-private history in real MVCC implementations too).
//   * Epoch GC. Every kGcInterval update commits, the committer prunes
//     entries no active snapshot can reach (wv <= min active rv, read from
//     the per-thread registry) and is charged for the work; `gc_runs` and
//     `gc_reclaims` are attributed to the triggering thread.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "stm/tl2.h"

namespace tsxhpc::stm {

/// Shared MVCC metadata: TL2's stripe locks + clock, the host-side version
/// chains, and the per-thread active-snapshot registry.
class MvccSpace : public Tl2Space {
 public:
  explicit MvccSpace(Machine& m, std::size_t stripes = 1 << 16,
                     unsigned shift = 3)
      : Tl2Space(m, "mvcc", stripes, shift) {}

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
    return ++updates_ % kGcInterval == 0;
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

  std::map<Addr, std::vector<Version>> chains_;  // ordered => deterministic
  std::map<sim::ThreadId, std::uint64_t> active_;
  std::uint64_t updates_ = 0;
};

/// An MVCC redo-log entry also keeps the word as first loaded: the
/// pre-image its commit publishes to the version chain.
struct PreImageEntry : WriteEntry {
  PreImageEntry(Addr a, std::uint64_t word) : WriteEntry{a, word}, orig(word) {}
  std::uint64_t orig;
};

/// Per-thread MVCC transaction descriptor.
class MvccTx : public BasicTl2Tx<PreImageEntry> {
 public:
  explicit MvccTx(MvccSpace& space)
      : BasicTl2Tx(space, "mvcc"), mvcc_(space) {}

  void begin(Context& c) {
    BasicTl2Tx::begin(c);
    tid_ = c.tid();
    mvcc_.set_active(tid_, rv_);
  }

  /// Snapshot read: never aborts. Fast path = TL2-style sandwich when the
  /// stripe is quiescent at or before rv; otherwise walk the version chain.
  std::uint64_t read(Context& c, Addr a, unsigned size = 8) {
    std::uint64_t value = 0;
    if (buffered(a, size, &value)) return value;
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
      const std::uint64_t word = c.load(word_key(a), 8);
      const std::uint64_t v2 = lock.load(c);
      if (v1 != v2) continue;  // the stripe moved under us — recheck
      read_set_.push_back(lock.addr());
      if (v1 <= rv_) {
        c.compute(kBookkeeping);
        return word_extract(word, a, size);
      }
      // The stripe is newer than rv. Update transactions recorded it above
      // — commit validation will see the too-new version and abort them
      // (first-committer-wins); the snapshot value itself comes from the
      // chain. Every overwrite of this word past rv appended its pre-image
      // before storing (and the stripe is quiescent), so a miss means the
      // sibling words moved the stripe and `word` is still the value at rv.
      // The lookup runs host-side directly after the sandwich, with no
      // yield in between.
      std::uint64_t hops = 0, depth = 0;
      const bool in_chain =
          mvcc_.chain_lookup(word_key(a), rv_, &value, &hops, &depth);
      stats_.version_chain_hops += hops;
      stats_.version_chain_depth_max =
          std::max(stats_.version_chain_depth_max, depth);
      c.compute(kBookkeeping + kChainHop * static_cast<sim::Cycles>(hops));
      return word_extract(in_chain ? value : word, a, size);
    }
  }

  /// Commit. Read-only transactions commit for free (the snapshot *is* the
  /// serialization point); update transactions commit like TL2 and publish
  /// pre-images to the version chains.
  void commit(Context& c) {
    if (write_log_.empty()) {
      mvcc_.clear_active(tid_);
      stats_.snapshot_commits++;
      committed(c);
      return;
    }
    // Publish: append each pre-image *before* storing the new value, so a
    // concurrent snapshot reader finds one or the other (both correct at
    // its rv — see the header comment).
    const std::uint64_t wv =
        commit_update(c, [&](const PreImageEntry& w, std::uint64_t v) {
          mvcc_.chain_append(w.addr, v, w.orig);
          stats_.versions_created++;
          c.store(w.addr, w.value, 8);
        });
    mvcc_.clear_active(tid_);
    if (mvcc_.note_update_commit()) {
      const std::uint64_t reclaimed = mvcc_.gc(wv);
      stats_.gc_runs++;
      stats_.gc_reclaims += reclaimed;
      c.compute(kGcBase + kGcPerReclaim * static_cast<sim::Cycles>(reclaimed));
    }
    committed(c);
  }

 private:
  void release(Context& /*c*/) override { mvcc_.clear_active(tid_); }

  static constexpr sim::Cycles kChainHop = 4;
  static constexpr sim::Cycles kLockSpin = 4;
  static constexpr sim::Cycles kGcBase = 40;
  static constexpr sim::Cycles kGcPerReclaim = 2;

  MvccSpace& mvcc_;
  sim::ThreadId tid_ = 0;
};

}  // namespace tsxhpc::stm
