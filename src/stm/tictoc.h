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
// Read modes mirror the oltp-cc-bench "trlock" exemplar family:
//   kOcc    — optimistic reads (ts-word / value / ts-word), validated and
//             possibly extended at commit ("trlock-occ").
//   kLock   — reads take the stripe lock at encounter time, no-wait
//             (locked stripe => immediate abort, so no deadlock) ("trlock").
//   kHybrid — start optimistic, switch to locking reads for the retries
//             after an abort of the same region ("trlock-hybrid").
//
// Cost profile is kept deliberately comparable to TL2 (same kBookkeeping /
// kAbortPenalty, same word-granularity write buffering) so scheme
// comparisons measure the algorithm, not accounting skew.
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
class TicTocTx {
 public:
  explicit TicTocTx(TicTocSpace& space) : space_(space) {}

  /// `mode` is the effective read mode for this attempt: kOcc or kLock.
  /// (kHybrid is a region-level policy — the caller maps it to kOcc for the
  /// first attempt and kLock after an abort.)
  void begin(Context& /*c*/, TicTocReadMode mode = TicTocReadMode::kOcc) {
    read_set_.clear();
    write_map_.clear();
    write_log_.clear();
    owned_.clear();
    commit_actions_.clear();
    mode_ = mode;
    active_ = true;
    starts_++;
  }

  /// Register an action to run iff this transaction commits. Discarded on
  /// abort.
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
    auto ts = space_.word_for(a);
    if (mode_ == TicTocReadMode::kLock) {
      const std::uint64_t w = lock_word(c, ts);
      const std::uint64_t value = c.load(a, size);
      read_set_.push_back({ts.addr(), TicTocSpace::wts(w),
                           TicTocSpace::rts(w)});
      c.compute(kBookkeeping);
      return value;
    }
    // Optimistic read: ts-word / value / ts-word, like TL2's versioned-lock
    // sandwich but recording (wts, rts) instead of comparing against a
    // global snapshot.
    const std::uint64_t w1 = ts.load(c);
    const std::uint64_t value = c.load(a, size);
    const std::uint64_t w2 = ts.load(c);
    if (TicTocSpace::locked(w1)) abort_tx(c, StmAbortKind::kLockAcquire);
    if (w1 != w2) abort_tx(c, StmAbortKind::kReadValidation);
    read_set_.push_back({ts.addr(), TicTocSpace::wts(w1),
                         TicTocSpace::rts(w1)});
    c.compute(kBookkeeping);
    return value;
  }

  void write(Context& c, Addr a, std::uint64_t value, unsigned size = 8) {
    if (mode_ == TicTocReadMode::kLock) {
      // Encounter-time locking also covers the write stripe, so commit
      // needs no further acquisition for it.
      lock_word(c, space_.word_for(a));
    }
    const Addr k = detail::word_key(a);
    auto [it, fresh] = write_map_.try_emplace(k, write_log_.size());
    if (fresh) {
      write_log_.push_back({k, c.load(k, 8)});
    }
    write_log_[it->second].value =
        detail::word_insert(write_log_[it->second].value, a, value, size);
    c.compute(kBookkeeping);
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
        // We hold the stripe (write intent or a kLock read). The version
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
        read_set_extensions_++;
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
        if (old_rts < commit_ts) read_set_extensions_++;
        c.store(ta,
                TicTocSpace::pack(TicTocSpace::wts(w),
                                  std::max(old_rts, commit_ts), false),
                8);
      }
    }
    owned_.clear();
    active_ = false;
    commits_++;
    run_commit_actions(c);
  }

  bool active() const { return active_; }
  std::uint64_t starts() const { return starts_; }
  std::uint64_t commits() const { return commits_; }
  std::uint64_t aborts() const { return aborts_; }
  std::uint64_t aborts(StmAbortKind k) const {
    return aborts_by_kind_[static_cast<std::size_t>(k)];
  }
  std::uint64_t read_set_extensions() const { return read_set_extensions_; }

 private:
  struct ReadEntry {
    Addr ts_addr;
    std::uint64_t wts;
    std::uint64_t rts;
  };
  struct WriteEntry {
    Addr addr;  // word-aligned
    std::uint64_t value;
  };

  /// No-wait stripe lock for kLock-mode reads/writes: a held stripe aborts
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

  void release_owned(Context& c) {
    // std::map iteration => ascending, deterministic release order.
    for (const auto& [ta, w] : owned_) c.store(ta, w, 8);
    owned_.clear();
  }

  [[noreturn]] void abort_tx(Context& c, StmAbortKind kind) {
    release_owned(c);
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

  TicTocSpace& space_;
  TicTocReadMode mode_ = TicTocReadMode::kOcc;
  bool active_ = false;
  std::vector<ReadEntry> read_set_;
  std::unordered_map<Addr, std::size_t> write_map_;
  std::vector<WriteEntry> write_log_;
  std::map<Addr, std::uint64_t> owned_;  // ts-word addr -> pre-lock word
  std::vector<std::function<void(Context&)>> commit_actions_;
  std::uint64_t starts_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t aborts_ = 0;
  std::array<std::uint64_t, 3> aborts_by_kind_{};
  std::uint64_t read_set_extensions_ = 0;
};

}  // namespace tsxhpc::stm
