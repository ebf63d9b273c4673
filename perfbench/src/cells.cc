#include "cells.h"

#include <array>
#include <chrono>
#include <exception>
#include <map>
#include <optional>

#include "clomp/clomp.h"
#include "netapps/netapps.h"
#include "stamp/stamp.h"

namespace perfbench {

using tsxhpc::tmlib::Backend;

namespace clomp = tsxhpc::clomp;
namespace netapps = tsxhpc::netapps;
namespace stamp = tsxhpc::stamp;
namespace tsync = tsxhpc::sync;
namespace tmlib = tsxhpc::tmlib;

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kStampHtm: return "stamp_htm";
    case Workload::kStampStm: return "stamp_stm";
    case Workload::kSyncNet: return "sync_net";
  }
  return "?";
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = {
      Workload::kStampHtm, Workload::kStampStm, Workload::kSyncNet};
  return kAll;
}

bool workload_from_name(const std::string& name, Workload* out) {
  for (Workload w : all_workloads()) {
    if (name == to_string(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

bool workload_attaches_telemetry(Workload w) {
  return w == Workload::kStampStm;
}

void fail(CellResult& r, const std::string& why) {
  if (r.ok) r.error = why;
  r.ok = false;
}

namespace {

/// FNV-1a over 64-bit words.
class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void add_totals(Fingerprint& fp, const sim::ThreadStats& t) {
  fp.add(t.tx_started);
  fp.add(t.tx_committed);
  for (auto v : t.tx_aborted) fp.add(v);
  fp.add(t.tx_read_lines_evicted);
  fp.add(t.tx_doomed_by_remote);
  fp.add(t.tx_cycles_committed);
  fp.add(t.tx_cycles_wasted);
  fp.add(t.backoff_cycles);
  for (auto v : t.cycles_by_bucket) fp.add(v);
  fp.add(t.mem_accesses);
  fp.add(t.l1_hits);
  fp.add(t.l1_misses);
  fp.add(t.l1_evictions);
  fp.add(t.llc_hits);
  fp.add(t.llc_misses);
  fp.add(t.llc_evictions);
  fp.add(t.xfers_in);
  fp.add(t.atomics);
  fp.add(t.slice_hops);
  fp.add(t.socket_hops);
  fp.add(t.hop_cycles);
  for (auto v : t.mem_stall_by_level) fp.add(v);
  fp.add(t.syscalls);
  fp.add(t.futex_waits);
  fp.add(t.futex_wakes);
}

void add_cc(Fingerprint& fp, const sim::CcStats& cc) {
  for (char ch : cc.scheme) fp.add(static_cast<unsigned char>(ch));
  fp.add(cc.starts);
  fp.add(cc.commits);
  fp.add(cc.aborts);
  fp.add(cc.aborts_read_validation);
  fp.add(cc.aborts_lock_acquire);
  fp.add(cc.aborts_commit_validation);
  fp.add(cc.read_set_extensions);
  fp.add(cc.snapshot_commits);
  fp.add(cc.versions_created);
  fp.add(cc.version_chain_hops);
  fp.add(cc.version_chain_depth_max);
  fp.add(cc.gc_runs);
  fp.add(cc.gc_reclaims);
}

/// Check one measured region's per-thread invariants and fold it into the
/// cell result.
void absorb(CellResult& r, const sim::RunStats& rs, sim::Cycles quantum) {
  for (std::size_t t = 0; t < rs.threads.size(); ++t) {
    const sim::ThreadStats& s = rs.threads[t];
    const std::string at = " (thread " + std::to_string(t) + ")";
    if (s.cycles_total() != s.end_cycle) {
      fail(r, "cycle buckets do not sum to end_cycle" + at);
    }
    if (s.mem_accesses != s.l1_hits + s.l1_misses) {
      fail(r, "mem_accesses != l1_hits + l1_misses" + at);
    }
    if (s.l1_misses != s.xfers_in + s.llc_hits + s.llc_misses) {
      fail(r, "l1_misses != xfers_in + llc_hits + llc_misses" + at);
    }
    if (rs.threads.size() > 1) {
      r.handoffs_est += static_cast<double>(s.end_cycle) /
                        static_cast<double>(quantum);
    }
  }
  const sim::ThreadStats t = rs.total();
  const sim::RunStats acc{{r.total, t}, 0};
  r.total = acc.total();
  r.makespan += rs.makespan;
}

void seal(CellResult& r) {
  Fingerprint fp;
  fp.add(r.makespan);
  fp.add(r.checksum);
  add_totals(fp, r.total);
  add_cc(fp, r.cc);
  r.fingerprint = fp.value();
  if (r.checksum == 0) fail(r, "checksum is zero");
}

sim::MachineConfig machine(sim::Telemetry* tel) {
  sim::MachineConfig m;
  // One host thread: simulated threads are fibers, whatever the
  // TSXHPC_BACKEND environment says.
  m.backend = sim::BackendKind::kFiber;
  m.telemetry = tel;
  // Livelock guard: no cell comes within 10x of this, so a cell that
  // reaches it fails (in about 20 s of host time) instead of stalling the
  // run.
  m.max_cycles = 2'000'000'000;
  return m;
}

/// Paper Table 1, tsx abort rates (%) at 1/2/4/8 threads, as transcribed
/// in EXPERIMENTS.md.
double paper_tsx_abort_pct(const std::string& app, int threads) {
  static const std::map<std::string, std::array<double, 4>> kTable1 = {
      {"bayes", {64, 91, 89, 94}},     {"genome", {6, 11, 19, 88}},
      {"intruder", {6, 11, 31, 74}},   {"kmeans", {0, 26, 71, 96}},
      {"labyrinth", {87, 95, 100, 97}}, {"ssca2", {0, 1, 1, 1}},
      {"vacation", {38, 51, 52, 99}},  {"yada", {46, 68, 84, 92}},
  };
  const auto it = kTable1.find(app);
  if (it == kTable1.end()) return -1;
  switch (threads) {
    case 1: return it->second[0];
    case 2: return it->second[1];
    case 4: return it->second[2];
    case 8: return it->second[3];
  }
  return -1;
}

Cell stamp_cell(const stamp::Workload& w, Backend b, int threads,
                std::uint64_t seed, const std::string& suffix) {
  Cell cell;
  cell.name = w.name + "/" + tmlib::to_string(b) + "/" + suffix;
  cell.group = w.name;
  if (b == Backend::kTsx) cell.paper_abort_pct = paper_tsx_abort_pct(w.name, threads);
  const stamp::WorkloadFn fn = w.fn;
  const std::string label = cell.name;
  cell.run = [fn, b, threads, seed, label](sim::Telemetry* tel) {
    stamp::Config cfg;
    cfg.backend = b;
    cfg.threads = threads;
    cfg.seed = seed;
    cfg.run_label = label;
    cfg.machine = machine(tel);
    const stamp::Result res = fn(cfg);
    CellResult r;
    absorb(r, res.stats, cfg.machine.sched_quantum);
    r.cc = res.cc;
    r.checksum = res.checksum;
    return r;
  };
  return cell;
}

void add_stamp_htm(std::vector<Cell>& cells, std::uint64_t seed) {
  for (const stamp::Workload& w : stamp::all_workloads()) {
    cells.push_back(stamp_cell(w, Backend::kSgl, 1, seed, "ref"));
    for (int t : {1, 2, 4, 8}) {
      cells.push_back(
          stamp_cell(w, Backend::kTsx, t, seed, "t" + std::to_string(t)));
    }
  }
}

void add_stamp_stm(std::vector<Cell>& cells, std::uint64_t seed) {
  // tictoc-hybrid is left out: vacation at 4 threads livelocks under it for
  // some seeds (seed 3 trips the livelock guard), and a workload here must
  // not fail on any seed. Its hooks are still priced by the cc microbenchmark.
  const Backend schemes[] = {Backend::kTl2, Backend::kTicToc, Backend::kMvcc};
  for (const stamp::Workload& w : stamp::all_workloads()) {
    for (Backend b : schemes) {
      for (int t : {1, 4, 8}) {
        cells.push_back(stamp_cell(w, b, t, seed, "t" + std::to_string(t)));
      }
    }
  }
}

void add_sync_net(std::vector<Cell>& cells, std::uint64_t seed) {
  // The network apps come first so that the warm-up cell (the first of the
  // list) is a netstack run rather than a sub-millisecond CLOMP point.
  // netferret / netdedup / netstreamcluster: the mutex reference, then all
  // five monitor schemes (Figure 6).
  const tsync::MonitorScheme monitors[] = {
      tsync::MonitorScheme::kMutex, tsync::MonitorScheme::kTsxAbort,
      tsync::MonitorScheme::kTsxCond, tsync::MonitorScheme::kMutexBusyWait,
      tsync::MonitorScheme::kTsxBusyWait};
  for (const netapps::Workload& w : netapps::all_workloads()) {
    for (int i = -1; i < 5; ++i) {
      const tsync::MonitorScheme s =
          i < 0 ? tsync::MonitorScheme::kMutex : monitors[i];
      Cell cell;
      cell.name = w.name + "/" + tsync::to_string(s) + (i < 0 ? "/ref" : "");
      const netapps::WorkloadFn fn = w.fn;
      const std::string label = cell.name;
      cell.run = [fn, s, seed, label](sim::Telemetry* tel) {
        netapps::Config cfg;
        cfg.scheme = s;
        cfg.connections = 4;
        cfg.seed = 10 + seed;
        cfg.run_label = label;
        cfg.machine = machine(tel);
        const netapps::Result res = fn(cfg);
        CellResult r;
        absorb(r, res.stats, cfg.machine.sched_quantum);
        r.checksum = res.checksum;
        return r;
      };
      cells.push_back(std::move(cell));
    }
  }
  // CLOMP-TM, the Figure 1 grid at 4 threads and full scale.
  const clomp::Scheme schemes[] = {
      clomp::Scheme::kSerial,       clomp::Scheme::kSmallAtomic,
      clomp::Scheme::kSmallCritical, clomp::Scheme::kSmallTM,
      clomp::Scheme::kLargeCritical, clomp::Scheme::kLargeTM};
  for (int scatters : {1, 2, 3, 4, 6, 8, 12, 16}) {
    for (clomp::Scheme s : schemes) {
      Cell cell;
      cell.name = std::string("clomp/") + clomp::to_string(s) + "/s" +
                  std::to_string(scatters);
      cell.group = "clomp/s" + std::to_string(scatters);  // serial first
      const std::string label = cell.name;
      cell.run = [s, scatters, seed, label](sim::Telemetry* tel) {
        clomp::Config cfg;
        cfg.threads = 4;
        cfg.zones_per_thread = 64;
        cfg.repetitions = 12;
        cfg.scatters_per_zone = scatters;
        cfg.seed = 41 + seed;
        cfg.run_label = label;
        cfg.machine = machine(tel);
        const clomp::Result res = clomp::run(cfg, s);
        CellResult r;
        absorb(r, res.stats, cfg.machine.sched_quantum);
        r.checksum = res.checksum;
        return r;
      };
      cells.push_back(std::move(cell));
    }
  }
}

/// Footprint lines of the transactions a histogram counted, taking each
/// power-of-two bucket at its midpoint.
double histogram_lines(const sim::Histogram& h) {
  double lines = 0;
  for (std::size_t b = 1; b < h.buckets.size(); ++b) {
    lines += static_cast<double>(h.buckets[b]) * 0.75 *
             static_cast<double>(std::uint64_t{1} << b);
  }
  return lines;
}

void absorb_telemetry(CellResult& r, const sim::Telemetry& tel) {
  for (const sim::RunRecord& run : tel.runs()) {
    for (const auto& [addr, site] : run.locks) {
      r.elided_commits += site.elided_commits;
      r.fallbacks += site.fallback_acquires;
      r.sections += site.elided_commits + site.fallback_acquires;
    }
    r.tx_lines_est += histogram_lines(run.commit_footprint_lines) +
                      histogram_lines(run.abort_footprint_lines);
  }
}

}  // namespace

std::vector<Cell> make_cells(Workload w, std::uint64_t seed) {
  std::vector<Cell> cells;
  switch (w) {
    case Workload::kStampHtm: add_stamp_htm(cells, seed); break;
    case Workload::kStampStm: add_stamp_stm(cells, seed); break;
    case Workload::kSyncNet: add_sync_net(cells, seed); break;
  }
  return cells;
}

CellResult run_cell(const Cell& cell, bool telemetry, Spans* spans,
                    int parent) {
  std::optional<sim::Telemetry> tel;
  if (telemetry) tel.emplace();
  CellResult r;
  const int call = spans ? spans->open(cell.name, "call", parent) : -1;
  try {
    r = cell.run(tel ? &*tel : nullptr);
    seal(r);
  } catch (const std::exception& e) {
    fail(r, std::string("exception: ") + e.what());
  }
  if (spans) spans->close(call);
  if (tel) {
    const int json = spans ? spans->open(cell.name, "json", parent) : -1;
    const auto t0 = std::chrono::steady_clock::now();
    const std::string artifact = tel->json("perfbench");
    const auto t1 = std::chrono::steady_clock::now();
    if (spans) spans->close(json);
    r.json_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (artifact.empty()) fail(r, "empty telemetry artifact");
    absorb_telemetry(r, *tel);
  }
  return r;
}

void check_groups(const std::vector<Cell>& cells,
                  std::vector<CellResult>& results, std::size_t count) {
  std::map<std::string, std::uint64_t> expected;
  for (std::size_t i = 0; i < count; ++i) {
    if (cells[i].group.empty()) continue;
    const auto [it, first] =
        expected.emplace(cells[i].group, results[i].checksum);
    if (!first && results[i].checksum != it->second) {
      fail(results[i], "checksum differs from " + cells[i].group +
                           "'s reference cell");
    }
  }
}

}  // namespace perfbench
