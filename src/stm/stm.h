// The skeleton of the software-TM family (tl2 / tictoc / mvcc). `StmTx`,
// the descriptor base, owns everything the schemes share:
//
//   * the word-granularity redo log: read-your-writes lookup, and a merging
//     write that loads the enclosing 8-byte word on its first write, so
//     sub-word writes merge at write-back (real TL2 logs words too). The
//     entry type is the one template parameter: MVCC's entries also keep
//     the loaded word as the pre-image it publishes;
//   * the commit actions (deferred frees), run on commit, dropped on abort;
//   * the cost constants, kept equal across schemes so comparisons measure
//     the algorithms rather than accounting skew;
//   * the one abort path: release the scheme's state, count the abort and
//     its class, drop the actions, charge the penalty, throw StmAbort;
//   * one `sim::CcStats`, the only place STM counters live. tmlib reports
//     it as the run's telemetry `cc` block (v7), which sim/check.cc
//     reconciles: every abort is exactly one of the three classes.
//
// A scheme adds only how it validates reads and serializes commits.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/context.h"
#include "sim/telemetry.h"

namespace tsxhpc::stm {

using sim::Addr;
using sim::Context;
using sim::Machine;

/// Why a software transaction aborted.
enum class StmAbortKind : std::uint8_t {
  /// A transactional read observed a stripe version newer than the snapshot
  /// (or a torn/locked stripe) — the classic read-time validation failure.
  kReadValidation,
  /// The transaction could not acquire a stripe lock (held by a concurrent
  /// committer, or a no-wait read lock lost the race).
  kLockAcquire,
  /// Commit-time validation of the read set failed (the snapshot went stale
  /// between the last read and the commit point).
  kCommitValidation,
};

/// Thrown on validation failure; the caller's retry loop restarts the
/// transaction (analogous to sigsetjmp/siglongjmp in real TL2).
struct StmAbort {
  StmAbortKind kind = StmAbortKind::kReadValidation;
};

/// One redo-log entry: a word-aligned address and its merged new value.
/// An entry type is built from (address, the word as first loaded).
struct WriteEntry {
  Addr addr;
  std::uint64_t value;
};

/// Per-thread descriptor base. Schemes derive from it and add begin, read
/// and commit; `write` is the shared merging write unless a scheme needs
/// more (TicToc's encounter-time locking).
template <typename Entry = WriteEntry>
class StmTx {
 public:
  /// Register an action to run iff this transaction commits (e.g. deferred
  /// frees from a TM-aware allocator). Discarded on abort.
  void on_commit(std::function<void(Context&)> action) {
    actions_.push_back(std::move(action));
  }

  void write(Context& c, Addr a, std::uint64_t value, unsigned size = 8) {
    const Addr k = word_key(a);
    auto [it, fresh] = write_map_.try_emplace(k, write_log_.size());
    if (fresh) write_log_.emplace_back(k, c.load(k, 8));
    Entry& w = write_log_[it->second];
    w.value = word_insert(w.value, a, value, size);
    c.compute(kBookkeeping);
  }

  /// Every counter this descriptor has charged, over all its transactions.
  const sim::CcStats& stats() const { return stats_; }

 protected:
  explicit StmTx(std::string_view scheme) { stats_.scheme = scheme; }

  /// Start an attempt: empty the log and the actions, count the start.
  void start() {
    write_map_.clear();
    write_log_.clear();
    actions_.clear();
    stats_.starts++;
  }

  /// Read-your-writes: true (and the value) if this transaction has written
  /// the word holding `a`.
  bool buffered(Addr a, unsigned size, std::uint64_t* value) const {
    if (write_map_.empty()) return false;
    auto it = write_map_.find(word_key(a));
    if (it == write_map_.end()) return false;
    *value = word_extract(write_log_[it->second].value, a, size);
    return true;
  }

  /// Finish a commit: count it, then run the actions.
  void committed(Context& c) {
    stats_.commits++;
    for (auto& action : actions_) action(c);
    actions_.clear();
  }

  [[noreturn]] void abort_tx(Context& c, StmAbortKind kind) {
    release(c);
    stats_.aborts++;
    switch (kind) {
      case StmAbortKind::kReadValidation:
        stats_.aborts_read_validation++;
        break;
      case StmAbortKind::kLockAcquire:
        stats_.aborts_lock_acquire++;
        break;
      case StmAbortKind::kCommitValidation:
        stats_.aborts_commit_validation++;
        break;
    }
    actions_.clear();
    c.compute(kAbortPenalty);
    throw StmAbort{kind};
  }

  /// The scheme's abort cleanup (held stripes, a published snapshot). Runs
  /// before the penalty is charged: `compute` can yield, and other threads
  /// must not see the state of a transaction that has already failed.
  virtual void release(Context& /*c*/) {}

  static constexpr sim::Cycles kBookkeeping = 6;
  static constexpr sim::Cycles kAbortPenalty = 120;

  static Addr word_key(Addr a) { return a & ~Addr{7}; }

  static std::uint64_t word_extract(std::uint64_t word, Addr a,
                                    unsigned size) {
    const unsigned shift = static_cast<unsigned>(a & 7) * 8;
    const std::uint64_t mask = size == 8 ? ~0ULL : (1ULL << (size * 8)) - 1;
    return (word >> shift) & mask;
  }

  static std::uint64_t word_insert(std::uint64_t word, Addr a,
                                   std::uint64_t v, unsigned size) {
    const unsigned shift = static_cast<unsigned>(a & 7) * 8;
    const std::uint64_t mask =
        size == 8 ? ~0ULL : ((1ULL << (size * 8)) - 1) << shift;
    return (word & ~mask) | ((v << shift) & mask);
  }

  std::vector<Entry> write_log_;
  sim::CcStats stats_;

 private:
  std::unordered_map<Addr, std::size_t> write_map_;
  std::vector<std::function<void(Context&)>> actions_;
};

}  // namespace tsxhpc::stm
