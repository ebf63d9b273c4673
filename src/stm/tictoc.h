// TicToc-style timestamp-ordering OCC (Yu, Pavlo, Sanchez & Devadas,
// SIGMOD'16) — the "data-driven" OCC the ROADMAP's scheme axis wants as a
// modern baseline against RTM elision and TL2.
//
// Unlike TL2 there is no global version clock: each stripe carries a packed
// (wts, rts) pair — the write timestamp of the version living there and the
// latest logical time anyone is known to have read it. A transaction computes
// its own commit timestamp from its footprint (after every overwritten rts,
// at or after every read wts) and *extends* read timestamps at commit instead
// of aborting when a read is merely old rather than stale. Those extensions
// are the scheme's signature event and are counted first-class
// (`read_set_extensions` in the telemetry `cc` block).
//
// Read modes mirror the oltp-cc-bench "trlock" exemplar family. The
// descriptor is built with its mode and switches by itself:
//   kOcc    — optimistic reads (ts-word / value / ts-word), validated and
//             possibly extended at commit ("trlock-occ").
//   kLock   — reads and writes take the stripe lock at encounter time,
//             no-wait (locked stripe => immediate abort, so no deadlock)
//             ("trlock").
//   kHybrid — optimistic on a region's first attempt, locking on every
//             retry after an abort, optimistic again once the region
//             commits ("trlock-hybrid").
//
// The redo log, commit actions, cost constants, abort path and counters
// are the StmTx base (stm.h), shared with TL2 and MVCC.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "sim/machine.h"
#include "sim/shared.h"
#include "stm/stm.h"

namespace tsxhpc::stm {

/// How TicToc transactional reads acquire their consistency guarantee.
enum class TicTocReadMode : std::uint8_t { kOcc, kLock, kHybrid };

inline const char* to_string(TicTocReadMode m) {
  switch (m) {
    case TicTocReadMode::kOcc: return "occ";
    case TicTocReadMode::kLock: return "lock";
    case TicTocReadMode::kHybrid: return "hybrid";
  }
  return "?";
}

/// Shared TicToc metadata: the per-stripe timestamp-word table. There is no
/// global clock — that is the point of the algorithm.
class TicTocSpace {
 public:
  // TS-word encoding: bit 0 = locked; bits 1..40 = wts; bits 41..63 = delta,
  // with rts = wts + delta. The delta field saturates: an under-stored rts is
  // always safe (it can only force a future extension, never admit a stale
  // read).
  static constexpr unsigned kWtsBits = 40;
  static constexpr unsigned kDeltaBits = 23;
  static constexpr std::uint64_t kWtsMax = (1ULL << kWtsBits) - 1;
  static constexpr std::uint64_t kDeltaMax = (1ULL << kDeltaBits) - 1;

  static std::uint64_t pack(std::uint64_t wts, std::uint64_t rts,
                            bool locked) {
    const std::uint64_t delta = std::min(rts - wts, kDeltaMax);
    return (locked ? 1ULL : 0ULL) | ((wts & kWtsMax) << 1)
           | (delta << (1 + kWtsBits));
  }
  static bool locked(std::uint64_t w) { return (w & 1) != 0; }
  static std::uint64_t wts(std::uint64_t w) { return (w >> 1) & kWtsMax; }
  static std::uint64_t rts(std::uint64_t w) {
    return wts(w) + (w >> (1 + kWtsBits));
  }

  /// `stripes` must be a power of two; stripe = addr >> shift, like TL2.
  TicTocSpace(Machine& m, std::size_t stripes = 1 << 16, unsigned shift = 3)
      : shift_(shift),
        mask_(stripes - 1),
        words_(sim::SharedArray<std::uint64_t>::alloc(
            m, {.name = "tictoc/stripes"}, stripes,
            pack(/*wts=*/2, /*rts=*/2, /*locked=*/false))) {
    if ((stripes & (stripes - 1)) != 0) {
      throw sim::SimError("TicToc stripe count must be a power of two");
    }
  }

  sim::Shared<std::uint64_t> word_for(Addr a) const {
    return words_.at((a >> shift_) & mask_);
  }

 private:
  unsigned shift_;
  std::size_t mask_;
  sim::SharedArray<std::uint64_t> words_;
};

/// Per-thread TicToc transaction descriptor.
class TicTocTx : public StmTx<> {
 public:
  explicit TicTocTx(TicTocSpace& space,
                    TicTocReadMode mode = TicTocReadMode::kOcc)
      : StmTx<>(mode == TicTocReadMode::kHybrid ? "tictoc-hybrid" : "tictoc"),
        space_(space),
        mode_(mode),
        locking_(mode == TicTocReadMode::kLock) {}

  void begin(Context& /*c*/) {
    read_set_.clear();
    owned_.clear();
    start();
  }

  std::uint64_t read(Context& c, Addr a, unsigned size = 8) {
    std::uint64_t value = 0;
    if (buffered(a, size, &value)) return value;
    auto ts = space_.word_for(a);
    if (locking_) {
      const std::uint64_t w = lock_word(c, ts);
      value = c.load(a, size);
      read_set_.push_back({ts.addr(), TicTocSpace::wts(w),
                           TicTocSpace::rts(w)});
      c.compute(kBookkeeping);
      return value;
    }
    // Optimistic read: ts-word / value / ts-word, like TL2's versioned-lock
    // sandwich but recording (wts, rts) instead of comparing against a
    // global snapshot.
    const std::uint64_t w1 = ts.load(c);
    value = c.load(a, size);
    const std::uint64_t w2 = ts.load(c);
    if (TicTocSpace::locked(w1)) abort_tx(c, StmAbortKind::kLockAcquire);
    if (w1 != w2) abort_tx(c, StmAbortKind::kReadValidation);
    read_set_.push_back({ts.addr(), TicTocSpace::wts(w1),
                         TicTocSpace::rts(w1)});
    c.compute(kBookkeeping);
    return value;
  }

  void write(Context& c, Addr a, std::uint64_t value, unsigned size = 8) {
    // Encounter-time locking also covers the write stripe, so commit
    // needs no further acquisition for it.
    if (locking_) lock_word(c, space_.word_for(a));
    StmTx<>::write(c, a, value, size);
  }

  /// Commit. Throws StmAbort on failure (state already reset).
  void commit(Context& c) {
    // Lock the write stripes not already owned. Sorted for deterministic
    // access order; progress comes from no-wait acquisition, not ordering.
    std::vector<Addr> write_stripes;
    write_stripes.reserve(write_log_.size());
    for (const auto& w : write_log_) {
      write_stripes.push_back(space_.word_for(w.addr).addr());
    }
    std::sort(write_stripes.begin(), write_stripes.end());
    write_stripes.erase(
        std::unique(write_stripes.begin(), write_stripes.end()),
        write_stripes.end());
    for (Addr ta : write_stripes) {
      if (owned_.count(ta) != 0) continue;
      const std::uint64_t w = c.load(ta, 8);
      if (TicTocSpace::locked(w) || !c.cas(ta, w, w | 1, 8)) {
        abort_tx(c, StmAbortKind::kLockAcquire);
      }
      owned_.emplace(ta, w);
    }
    // Serialization point: strictly after every overwritten version's rts,
    // at or after every read version's wts.
    std::uint64_t commit_ts = 0;
    for (Addr ta : write_stripes) {
      commit_ts = std::max(commit_ts, TicTocSpace::rts(owned_.at(ta)) + 1);
    }
    for (const ReadEntry& r : read_set_) {
      commit_ts = std::max(commit_ts, r.wts);
    }
    // Validate reads whose rts window does not reach commit_ts: re-check the
    // version still lives, then extend its rts in place instead of aborting.
    for (const ReadEntry& r : read_set_) {
      if (r.rts >= commit_ts) continue;
      if (auto it = owned_.find(r.ts_addr); it != owned_.end()) {
        // We hold the stripe (write intent or a locking read). The version
        // must still be the one we read — a commit that slipped in between
        // our read and our lock acquisition means the value is stale (the
        // classic lost-update window). Extension itself is settled when we
        // release the stripe below.
        if (TicTocSpace::wts(it->second) != r.wts) {
          abort_tx(c, StmAbortKind::kCommitValidation);
        }
        continue;
      }
      const std::uint64_t w = c.load(r.ts_addr, 8);
      if (TicTocSpace::wts(w) != r.wts || TicTocSpace::locked(w)) {
        abort_tx(c, StmAbortKind::kCommitValidation);
      }
      if (TicTocSpace::rts(w) < commit_ts) {
        // CAS, not a plain store: another reader may race its own extension
        // (or a committer may lock the stripe) between our load and store.
        if (!c.cas(r.ts_addr, w,
                   TicTocSpace::pack(r.wts, commit_ts, false), 8)) {
          abort_tx(c, StmAbortKind::kCommitValidation);
        }
        stats_.read_set_extensions++;
      }
    }
    // Write back, then release every owned stripe: write stripes publish
    // (wts = rts = commit_ts); read-locked stripes keep their version with
    // rts extended to commit_ts.
    for (const auto& w : write_log_) c.store(w.addr, w.value, 8);
    for (const auto& [ta, w] : owned_) {
      if (std::binary_search(write_stripes.begin(), write_stripes.end(),
                             ta)) {
        c.store(ta, TicTocSpace::pack(commit_ts, commit_ts, false), 8);
      } else {
        const std::uint64_t old_rts = TicTocSpace::rts(w);
        if (old_rts < commit_ts) stats_.read_set_extensions++;
        c.store(ta,
                TicTocSpace::pack(TicTocSpace::wts(w),
                                  std::max(old_rts, commit_ts), false),
                8);
      }
    }
    owned_.clear();
    locking_ = mode_ == TicTocReadMode::kLock;  // hybrid: the region is done
    committed(c);
  }

 private:
  struct ReadEntry {
    Addr ts_addr;
    std::uint64_t wts;
    std::uint64_t rts;
  };

  /// No-wait stripe lock for locking reads/writes: a held stripe aborts
  /// immediately (kLockAcquire), so encounter-time locking cannot deadlock.
  /// Returns the (locked) ts-word. Idempotent per stripe.
  std::uint64_t lock_word(Context& c, sim::Shared<std::uint64_t> ts) {
    if (auto it = owned_.find(ts.addr()); it != owned_.end()) {
      return it->second | 1;
    }
    const std::uint64_t w = ts.load(c);
    if (TicTocSpace::locked(w) || !c.cas(ts.addr(), w, w | 1, 8)) {
      abort_tx(c, StmAbortKind::kLockAcquire);
    }
    owned_.emplace(ts.addr(), w);
    return w | 1;
  }

  /// Abort: unlock every owned stripe (std::map iteration => ascending,
  /// deterministic release order). Hybrid retries lock their reads.
  void release(Context& c) override {
    for (const auto& [ta, w] : owned_) c.store(ta, w, 8);
    owned_.clear();
    locking_ = mode_ != TicTocReadMode::kOcc;
  }

  TicTocSpace& space_;
  TicTocReadMode mode_;
  bool locking_;  // this attempt locks at encounter time
  std::vector<ReadEntry> read_set_;
  std::map<Addr, std::uint64_t> owned_;  // ts-word addr -> pre-lock word
};

}  // namespace tsxhpc::stm
