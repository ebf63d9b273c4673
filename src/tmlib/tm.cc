// The concrete CcBackend adapters: one for the lock-based schemes and one
// retry loop for every STM descriptor, both vended by one backend template.
// The sgl/tl2/tsx adapters re-express the pre-seam switch dispatch
// *exactly* — same simulated operations in the same order — so their
// telemetry is bit-for-bit the pre-seam output (tests/cc_equivalence_test.cc
// proves it against committed goldens). All four STM schemes share the
// retry loop (backoff 80 cycles, doubling while below 4000) so scheme
// comparisons measure the algorithms, not harness skew; the descriptors
// count into their own CcStats (stm.h).
#include "tmlib/tm.h"

#include <memory>
#include <tuple>
#include <utility>

#include "stm/mvcc.h"
#include "stm/tictoc.h"

namespace tsxhpc::tmlib {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kSgl: return "sgl";
    case Backend::kTl2: return "tl2";
    case Backend::kTsx: return "tsx";
    case Backend::kTicToc: return "tictoc";
    case Backend::kTicTocHybrid: return "tictoc-hybrid";
    case Backend::kMvcc: return "mvcc";
  }
  return "?";
}

const std::vector<Backend>& all_backends() {
  static const std::vector<Backend> kAll = {
      Backend::kSgl,    Backend::kTl2,          Backend::kTsx,
      Backend::kTicToc, Backend::kTicTocHybrid, Backend::kMvcc,
  };
  return kAll;
}

bool backend_from_name(const std::string& name, Backend* out) {
  for (Backend b : all_backends()) {
    if (name == to_string(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

namespace {

// ---- sgl / tsx: regions under the global lock ----------------------------
// sgl acquires the lock; tsx elides it with RTM. Region-level accounting
// only: hardware retries live below this seam, in the telemetry attempt
// chains, so cc.aborts stays 0 (sim/check.cc) and tsx's cc.commits
// reconciles against elided_commits + fallback_acquires.

template <Backend kScheme>
class LockThread final : public CcThread {
 public:
  explicit LockThread(sync::ElidedLock& lock) : lock_(lock) {
    stats_.scheme = to_string(kScheme);
  }
  void execute(Context& c, RegionRef body) override {
    if constexpr (kScheme == Backend::kTsx) {
      lock_.critical(c, [&] { body(); });
    } else {
      auto& lock = lock_.underlying();
      lock.acquire(c);
      body();
      lock.release(c);
    }
    stats_.starts++;
    stats_.commits++;
  }
  const sim::CcStats& stats() const override { return stats_; }

 private:
  sync::ElidedLock& lock_;
  sim::CcStats stats_;
};

// ---- The STM retry loop, over any stm.h descriptor ------------------------

template <typename Tx>
class StmThread final : public CcThread {
 public:
  template <typename... Args>
  explicit StmThread(Args&&... args) : tx_(std::forward<Args>(args)...) {}

  void execute(Context& c, RegionRef body) override {
    sim::Cycles backoff = 80;
    for (;;) {
      tx_.begin(c);
      try {
        body();
        tx_.commit(c);
        return;
      } catch (const stm::StmAbort&) {
        c.compute(backoff);
        if (backoff < 4000) backoff *= 2;
      }
    }
  }
  std::uint64_t read(Context& c, Addr a, unsigned size) override {
    return tx_.read(c, a, size);
  }
  void write(Context& c, Addr a, std::uint64_t v, unsigned size) override {
    tx_.write(c, a, v, size);
  }
  bool buffers_writes() const override { return true; }
  void defer_to_commit(std::function<void(Context&)> action) override {
    tx_.on_commit(std::move(action));
  }
  const sim::CcStats& stats() const override { return tx_.stats(); }

 private:
  Tx tx_;
};

// ---- The one backend: a scheme's shared state plus its handle type --------
// `State` is a reference for state the runtime owns (global lock, TL2
// space) and a value for a space the backend allocates itself. Each attach
// builds `Thread(state, args...)`.

template <typename Thread, typename State, typename... Args>
class SchemeBackend final : public CcBackend {
 public:
  template <typename Init>
  explicit SchemeBackend(Init& init, Args... args)
      : state_(init), args_(args...) {}
  std::unique_ptr<CcThread> attach() override {
    return std::apply(
        [this](Args... a) { return std::make_unique<Thread>(state_, a...); },
        args_);
  }

 private:
  State state_;
  [[no_unique_address]] std::tuple<Args...> args_;
};

template <typename Thread, typename State, typename Init, typename... Args>
std::unique_ptr<CcBackend> backend(Init& init, Args... args) {
  return std::make_unique<SchemeBackend<Thread, State, Args...>>(init,
                                                                 args...);
}

}  // namespace

std::unique_ptr<CcBackend> make_cc_backend(Machine& m, Backend b,
                                           sync::ElidedLock& global_lock,
                                           stm::Tl2Space& tl2_space) {
  using stm::TicTocReadMode;
  switch (b) {
    case Backend::kSgl:
      return backend<LockThread<Backend::kSgl>, sync::ElidedLock&>(
          global_lock);
    case Backend::kTsx:
      return backend<LockThread<Backend::kTsx>, sync::ElidedLock&>(
          global_lock);
    case Backend::kTl2:
      return backend<StmThread<stm::Tl2Tx>, stm::Tl2Space&>(tl2_space);
    case Backend::kTicToc:
      return backend<StmThread<stm::TicTocTx>, stm::TicTocSpace>(
          m, TicTocReadMode::kOcc);
    case Backend::kTicTocHybrid:
      return backend<StmThread<stm::TicTocTx>, stm::TicTocSpace>(
          m, TicTocReadMode::kHybrid);
    case Backend::kMvcc:
      return backend<StmThread<stm::MvccTx>, stm::MvccSpace>(m);
  }
  throw sim::SimError("unknown TM backend");
}

}  // namespace tsxhpc::tmlib
