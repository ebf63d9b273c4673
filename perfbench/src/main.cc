// perfbench: host-speed benchmark of the simulator.
//
//   perfbench --workload stamp_htm|stamp_stm|sync_net --seed N --seconds S
//             --trace 0|1 [--fingerprints PATH] [--spans PATH]
//
// Everything runs in this process on one host thread: every Machine uses
// the fiber backend. Each workload is a list of cells (cells.h) run back to
// back in a closed loop. A run sets up several times (cell list + one
// untimed warm-up cell each), then cycles through the cells for S seconds,
// completing at least one full pass. Every cell output is checked; the last
// stdout line is one JSON object with the result.
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the traced run: it
// times every layer's microbenchmarks (layers.h), alternates untraced passes
// with traced ones (a Telemetry attached to every cell, spans recorded),
// and reports the per-layer table and the attribution of the traced wall
// time to layers.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "calibration.h"
#include "cells.h"
#include "cpu_pick.h"
#include "layers.h"
#include "spans.h"

namespace perfbench {
namespace {

constexpr int kSetups = 5;  // set-ups per run; setup_s is their median

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolation percentile, p in [0, 100].
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double pct(double part, double whole) {
  return whole == 0 ? 0.0 : 100.0 * part / whole;
}

struct Options {
  Workload workload = Workload::kStampHtm;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string fingerprints;  // write first-run cell fingerprints here
  std::string spans;         // traced run: write the spans here
};

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload stamp_htm|stamp_stm|sync_net "
               "--seed N --seconds S --trace 0|1 [--fingerprints PATH] "
               "[--spans PATH]\n",
               why.c_str());
  return 2;
}

/// Parses `--key value` and `--key=value`. Returns an error or "".
std::string parse(int argc, char** argv, Options& o) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) return "unexpected argument " + key;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return key + " needs a value";
    }
    char* end = nullptr;
    if (key == "--workload") {
      if (!workload_from_name(value, &o.workload)) {
        return "unknown workload '" + value +
               "' (expected stamp_htm, stamp_stm or sync_net)";
      }
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return "--seed must be an integer";
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0) ||
          o.seconds > 600) {
        return "--seconds must be a number in (0, 600]";
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return "--trace must be 0 or 1";
      o.trace = value == "1";
    } else if (key == "--fingerprints") {
      o.fingerprints = value;
    } else if (key == "--spans") {
      o.spans = value;
    } else {
      return "unknown flag " + key;
    }
  }
  if (!have_workload) return "--workload is required";
  return "";
}

/// Failure bookkeeping shared by every pass of a run.
struct Book {
  std::vector<std::uint64_t> fingerprint;  // of each cell's first run
  std::vector<bool> seen;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few, for the report

  explicit Book(std::size_t cells) : fingerprint(cells), seen(cells) {}

  void count(const std::string& what, const CellResult& r) {
    attempted++;
    if (r.ok) return;
    failed++;
    if (errors.size() < 8) errors.push_back(what + ": " + r.error);
  }
};

/// One kind of pass: untraced (as measured end to end) or traced.
struct Series {
  bool telemetry = false;
  Spans* spans = nullptr;  // record spans (traced passes only)
  /// Host ms of every timed run of each cell, raw and divided by the host
  /// slowdown measured around it.
  std::vector<std::vector<double>> ms, norm_ms;
  std::vector<double> slowdowns;  // the median slowdown of each pass
  std::vector<CellResult> first;  // the first, complete pass

  Series(std::size_t cells, bool tel, Spans* sp)
      : telemetry(tel), spans(sp), ms(cells), norm_ms(cells) {}

  std::vector<double> cell_medians(bool normalised) const {
    std::vector<double> v;
    for (const auto& m : normalised ? norm_ms : ms) v.push_back(median(m));
    return v;
  }
  /// Sum of the cells' median times.
  double pass_ms(bool normalised) const {
    double sum = 0;
    for (double m : cell_medians(normalised)) sum += m;
    return sum;
  }
};

/// Run cells in list order until the pass completes or `stop()` holds
/// before a cell. Checks each cell, compares its fingerprint with the
/// cell's first run, and runs the group checksum checks on what ran.
/// Calibration samples bracket every cell; the cell's normalised time
/// divides by the mean slowdown of the two. The picker may move the process
/// to another CPU between cells.
void run_pass(const std::vector<Cell>& cells, Series& series, Book& book,
              HostCalibration& cal, CpuPicker& picker,
              const std::function<bool()>& stop) {
  std::vector<CellResult> pass(cells.size());
  std::vector<double> raw, slowdowns;
  Spans* spans = series.spans;
  const int pass_span = spans ? spans->open("pass", "pass") : -1;
  double before = 0;
  std::size_t n = 0;
  for (; n < cells.size() && !stop(); ++n) {
    if (n == 0 || picker.maybe_repick()) before = cal.sample_ms();
    const int span = spans ? spans->open(cells[n].name, "cell", pass_span) : -1;
    const auto t0 = Clock::now();
    CellResult r = run_cell(cells[n], series.telemetry, spans, span);
    raw.push_back(seconds_since(t0) * 1e3);
    if (spans) spans->close(span);
    const double after = cal.sample_ms();
    slowdowns.push_back(0.5 * (before + after) / HostCalibration::kReferenceMs);
    before = after;
    if (!book.seen[n]) {
      book.seen[n] = true;
      book.fingerprint[n] = r.fingerprint;
    } else if (r.fingerprint != book.fingerprint[n]) {
      fail(r, "simulated statistics differ from the cell's first run");
    }
    pass[n] = std::move(r);
  }
  if (spans) spans->close(pass_span);
  if (n > 0) series.slowdowns.push_back(median(slowdowns));
  for (std::size_t i = 0; i < n; ++i) {
    series.ms[i].push_back(raw[i]);
    series.norm_ms[i].push_back(raw[i] / slowdowns[i]);
  }
  check_groups(cells, pass, n);
  for (std::size_t i = 0; i < n; ++i) book.count(cells[i].name, pass[i]);
  if (series.first.empty()) series.first = std::move(pass);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string moves;  // per-layer: the end-to-end metric it should move
};

void print_result(const Book& book, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              book.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(book.attempted),
              static_cast<unsigned long long>(book.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Peak resident memory of this program image, from VmHWM. getrusage's
/// ru_maxrss also counts the parent's peak inherited across fork, so a large
/// launcher (such as run.py) would mask this process; it is only
/// the fallback when /proc is unavailable.
double peak_rss_mb() {
  double kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f)) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  if (kib == 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kib = static_cast<double>(ru.ru_maxrss);
  }
  return kib / 1024.0;
}

bool write_fingerprints(const std::string& path, const Options& o,
                        const std::vector<Cell>& cells, const Book& book) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"cells\": {",
               to_string(o.workload), static_cast<unsigned long long>(o.seed));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::fprintf(f, "%s\n  \"%s\": \"%016llx\"", i ? "," : "",
                 cells[i].name.c_str(),
                 static_cast<unsigned long long>(book.fingerprint[i]));
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

/// Mean absolute error (percentage points) of the tsx abort rates against
/// the paper's Table 1, over the cells that carry a paper value.
void print_fidelity(Workload w, const std::vector<Cell>& cells,
                    const std::vector<CellResult>& first) {
  if (w != Workload::kStampHtm) {
    std::printf("fidelity: the model is unvalidated for %s; no error "
                "figure is given\n",
                to_string(w));
    return;
  }
  double err = 0;
  int n = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].paper_abort_pct < 0) continue;
    err += std::fabs(first[i].total.abort_rate_pct() - cells[i].paper_abort_pct);
    n++;
  }
  std::printf("fidelity.table1_err_pp: %.2f pp mean absolute error of the "
              "tsx abort rates over %d cells against paper Table 1 "
              "(in-sample: the LLC geometry and lat_mem were tuned against "
              "Table 1 orderings)\n",
              n ? err / n : 0.0, n);
}

std::vector<Metric> end_to_end(const std::vector<Cell>& cells,
                               const Series& s, double setup_s,
                               double rss_mb) {
  const std::vector<double> med = s.cell_medians(true);
  double accesses = 0;
  for (const CellResult& r : s.first) {
    accesses += static_cast<double>(r.total.mem_accesses);
  }
  std::size_t runs = 0, fewest = SIZE_MAX;
  for (const auto& m : s.ms) {
    runs += m.size();
    fewest = std::min(fewest, m.size());
  }
  const double pass_ms = s.pass_ms(true);
  const double raw_ms = s.pass_ms(false);
  std::printf("cells: %zu per pass, %zu timed cell runs (each cell at least "
              "%zu times); a cell's time is the median of its runs\n",
              cells.size(), runs, fewest);
  std::printf("host slowdown against the calibration reference: median %.3f "
              "over %zu passes (min %.3f, max %.3f)\n",
              median(s.slowdowns), s.slowdowns.size(),
              *std::min_element(s.slowdowns.begin(), s.slowdowns.end()),
              *std::max_element(s.slowdowns.begin(), s.slowdowns.end()));
  std::printf("pass: %.1f ms normalised, %.1f ms raw (sums of cell medians); "
              "%.0f simulated memory accesses\n",
              pass_ms, raw_ms, accesses);
  std::printf("raw: sim_maccess_per_s %.4f, cell_ms_p50 %.4f, cell_ms_p90 "
              "%.4f\n",
              accesses / 1e3 / raw_ms, percentile(s.cell_medians(false), 50),
              percentile(s.cell_medians(false), 90));
  return {
      {"sim_maccess_per_s", accesses / 1e3 / pass_ms, "Maccess/s", ""},
      {"cell_ms_p50", percentile(med, 50), "ms", ""},
      {"cell_ms_p90", percentile(med, 90), "ms", ""},
      {"setup_s", setup_s, "s", ""},
      {"peak_rss_mb", rss_mb, "MB", ""},
  };
}

/// Sums over one traced pass.
struct Totals {
  sim::ThreadStats t;  // RunStats totals summed over the cells
  double handoffs = 0;
  sim::CcStats cc;
  double cc_region_ns = 0;  // starts x the scheme's region cost
  std::uint64_t sections = 0, elided = 0, fallbacks = 0;
  double tx_lines = 0;
  double json_ms = 0;
  sim::Cycles makespan = 0;
};

Totals totals(const std::vector<CellResult>& pass, const LayerCosts& costs) {
  Totals out;
  sim::RunStats cells;  // one "thread" per cell, summed by total()
  for (const CellResult& r : pass) {
    cells.threads.push_back(r.total);
    out.handoffs += r.handoffs_est;
    out.cc.merge(r.cc);
    if (const auto it = costs.cc.find(r.cc.scheme); it != costs.cc.end()) {
      out.cc_region_ns += static_cast<double>(r.cc.starts) * it->second.region_ns;
    }
    out.sections += r.sections;
    out.elided += r.elided_commits;
    out.fallbacks += r.fallbacks;
    out.tx_lines += r.tx_lines_est;
    out.json_ms += r.json_ms;
    out.makespan += r.makespan;
  }
  out.t = cells.total();
  return out;
}

/// Which end-to-end metric each layer's figures should move, and where.
const char* moves(const std::string& name) {
  static const std::vector<std::pair<std::string, const char*>> kMap = {
      {"engine.", "cell_ms_p50 @ sync_net"},
      {"memory.", "sim_maccess_per_s @ stamp_htm, stamp_stm"},
      {"tsx.commit_ns.l1", "cell_ms_p50 @ sync_net"},
      {"tsx.commit_ns.l16", "sim_maccess_per_s @ stamp_htm"},
      {"tsx.commit_ns.l256", "sim_maccess_per_s @ stamp_htm"},
      {"tsx.abort_ns", "cell_ms_p50 @ sync_net, stamp_htm"},
      {"tsx.doom_ns", "8-thread cells @ stamp_htm"},
      {"tsx.", "sim_maccess_per_s @ stamp_htm"},
      {"sync.", "cell_ms_p50 @ sync_net"},
      {"cc.sgl.", "sim_maccess_per_s @ stamp_htm, stamp_stm"},
      {"cc.tsx.", "sim_maccess_per_s @ stamp_htm, stamp_stm"},
      {"cc.", "sim_maccess_per_s @ stamp_stm"},
      {"telemetry.", "sim_maccess_per_s @ stamp_stm"},
      {"heap.", "setup_s @ all"},
  };
  for (const auto& [prefix, target] : kMap) {
    if (name.rfind(prefix, 0) == 0) return target;
  }
  return "";
}

std::vector<Metric> per_layer(Workload w, const LayerCosts& c,
                              const Series& untraced, const Series& traced,
                              const Totals& tot) {
  std::vector<Metric> m;
  const auto add = [&](const std::string& name, double value,
                       const std::string& unit) {
    m.push_back({name, value, unit, moves(name)});
  };
  const sim::ThreadStats& t = tot.t;
  add("engine.handoff_ns", c.handoff_ns, "ns");
  add("engine.block_wake_ns", c.block_wake_ns, "ns");
  add("memory.l1_hit_ns", c.l1_hit_ns, "ns");
  add("memory.xfer_ns", c.xfer_ns, "ns");
  add("memory.llc_hit_ns", c.llc_hit_ns, "ns");
  add("memory.dram_ns", c.dram_ns, "ns");
  add("memory.bulk_ns_per_line", c.bulk_ns_per_line, "ns");
  add("memory.accesses", static_cast<double>(t.mem_accesses), "count");
  add("memory.l1_hit_pct",
      pct(static_cast<double>(t.l1_hits), static_cast<double>(t.mem_accesses)),
      "%");
  add("memory.xfers", static_cast<double>(t.xfers_in), "count");
  add("memory.llc_hits", static_cast<double>(t.llc_hits), "count");
  add("memory.llc_misses", static_cast<double>(t.llc_misses), "count");
  add("tsx.commit_ns.l1", c.commit_ns_l1, "ns");
  add("tsx.commit_ns.l16", c.commit_ns_l16, "ns");
  add("tsx.commit_ns.l256", c.commit_ns_l256, "ns");
  add("tsx.abort_ns", c.abort_ns, "ns");
  add("tsx.doom_ns", c.doom_ns, "ns");
  const auto aborted = [&](sim::AbortCause cause) {
    return static_cast<double>(t.tx_aborted[static_cast<std::size_t>(cause)]);
  };
  add("tsx.started", static_cast<double>(t.tx_started), "count");
  add("tsx.commit_pct",
      pct(static_cast<double>(t.tx_committed), static_cast<double>(t.tx_started)),
      "%");
  add("tsx.capacity_aborts",
      aborted(sim::AbortCause::kCapacityWrite) +
          aborted(sim::AbortCause::kCapacityRead),
      "count");
  add("tsx.conflict_aborts", aborted(sim::AbortCause::kConflict), "count");
  add("sync.elided_ns", c.elided_ns, "ns");
  add("sync.spin_ns", c.spin_ns, "ns");
  add("sync.atomic_ns", c.atomic_ns, "ns");
  add("sync.elision_pct",
      pct(static_cast<double>(tot.elided), static_cast<double>(tot.sections)),
      "%");
  add("sync.fallbacks", static_cast<double>(tot.fallbacks), "count");
  for (const auto& [scheme, cost] : c.cc) {
    add("cc." + scheme + ".region_ns", cost.region_ns, "ns");
    add("cc." + scheme + ".read_ns", cost.read_ns, "ns");
    add("cc." + scheme + ".write_ns", cost.write_ns, "ns");
  }
  add("cc.starts", static_cast<double>(tot.cc.starts), "count");
  add("cc.commit_pct",
      pct(static_cast<double>(tot.cc.commits),
          static_cast<double>(tot.cc.starts)),
      "%");
  add("cc.read_validation_aborts",
      static_cast<double>(tot.cc.aborts_read_validation), "count");
  add("cc.mvcc_chain_hops", static_cast<double>(tot.cc.version_chain_hops),
      "count");
  add("telemetry.access_overhead_ns", c.tel_access_overhead_ns, "ns");
  add("telemetry.section_overhead_ns", c.tel_section_overhead_ns, "ns");
  add("telemetry.json_ms",
      tot.json_ms / static_cast<double>(std::max<std::size_t>(1, traced.first.size())),
      "ms");
  add("heap.alloc_ns", c.alloc_ns, "ns");

  add("sim.makespan_cycles", static_cast<double>(tot.makespan), "cycles");
  const double cycles = static_cast<double>(t.cycles_total());
  for (int b = 0; b < static_cast<int>(sim::CycleBucket::kNumBuckets); ++b) {
    const auto bucket = static_cast<sim::CycleBucket>(b);
    add(std::string("sim.bucket_pct.") + sim::to_string(bucket),
        pct(static_cast<double>(t.bucket(bucket)), cycles), "%");
  }
  double stall = 0;
  for (auto s : t.mem_stall_by_level) stall += static_cast<double>(s);
  const char* levels[] = {"l1", "xfer", "llc", "dram"};
  for (int l = 0; l < static_cast<int>(sim::MemLevel::kNumLevels); ++l) {
    add(std::string("sim.stall_pct.") + levels[l],
        pct(static_cast<double>(t.mem_stall_by_level[l]), stall), "%");
  }

  // Attribution: exact counts of the traced pass x the microbenchmarks' ns/op,
  // over the traced wall time (sum of the traced cells' median times).
  const double wall_ns = traced.pass_ms(false) * 1e6;
  const double engine =
      tot.handoffs * c.handoff_ns +
      static_cast<double>(t.futex_waits) * c.block_wake_ns;
  const double memory = static_cast<double>(t.l1_hits) * c.l1_hit_ns +
                        static_cast<double>(t.xfers_in) * c.xfer_ns +
                        static_cast<double>(t.llc_hits) * c.llc_hit_ns +
                        static_cast<double>(t.llc_misses) * c.dram_ns;
  const double tsx_fixed =
      static_cast<double>(t.tx_committed) * c.commit_ns_l1 +
      static_cast<double>(t.tx_aborts_total()) * c.abort_ns;
  const double tsx = tsx_fixed + tot.tx_lines * c.tsx_per_line_ns();
  const double cc = tot.cc_region_ns;
  const double telemetry =
      static_cast<double>(t.mem_accesses) * c.tel_access_overhead_ns +
      static_cast<double>(tot.sections) * c.tel_section_overhead_ns +
      tot.json_ms * 1e6;
  const double shares[] = {pct(engine, wall_ns), pct(memory, wall_ns),
                           pct(tsx, wall_ns), pct(cc, wall_ns),
                           pct(telemetry, wall_ns)};
  const char* names[] = {"engine", "memory", "tsx", "cc", "telemetry"};
  double attributed = 0;
  for (int i = 0; i < 5; ++i) {
    add(std::string("attrib.") + names[i] + "_pct", shares[i], "%");
    attributed += shares[i];
  }
  add("attrib.residual_pct", 100.0 - attributed, "%");
  // Normalised, so that host drift between the passes cancels.
  const double overhead = pct(traced.pass_ms(true) - untraced.pass_ms(true),
                              untraced.pass_ms(true));
  add("trace.overhead_pct", overhead, "%");

  std::printf("\nper-layer table (%s, traced wall %.1f ms per pass, "
              "untraced %.1f ms)\n",
              to_string(w), traced.pass_ms(false), untraced.pass_ms(false));
  std::printf("  %-32s %16s %-7s %s\n", "metric", "value", "unit",
              "should move");
  for (const Metric& x : m) {
    std::printf("  %-32s %16.4f %-7s %s\n", x.name.c_str(), x.value,
                x.unit.c_str(), x.moves.c_str());
  }

  std::printf("\nattribution of the traced wall time (count x ns/op):\n");
  for (int i = 0; i < 5; ++i) {
    std::printf("  %-10s %6.1f%%\n", names[i], shares[i]);
  }
  std::printf("  %-10s %6.1f%%  (not priced: cc per-access hooks, workload "
              "logic, host allocation)\n",
              "residual", 100.0 - attributed);
  const double tsx_fixed_share = pct(tsx_fixed, wall_ns);
  if (w == Workload::kSyncNet) {
    const double lead = tsx_fixed_share + shares[0];
    const bool holds = lead > std::max({shares[1], shares[3], shares[4]});
    std::printf("prediction (tsx fixed cost + engine lead on sync_net): %s "
                "(%.1f%% vs memory %.1f%%)\n",
                holds ? "holds" : "FAILS", lead, shares[1]);
  } else {
    const bool holds =
        shares[1] > std::max({shares[0], shares[2], shares[3], shares[4]});
    std::printf("prediction (memory leads on %s): %s (memory %.1f%%)\n",
                to_string(w), holds ? "holds" : "FAILS", shares[1]);
  }
  return m;
}

int run(const Options& o) {
  std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %s; fiber "
              "backend (one host thread); each cell builds a fresh Machine, "
              "so modelled caches start cold; host caches are warmed by an "
              "untimed warm-up cell\n",
              to_string(o.workload), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? "on" : "off");
  Spans spans;
  Spans* tracer = o.trace ? &spans : nullptr;
  const bool tel = workload_attaches_telemetry(o.workload);

  // Pin to the fastest CPU first, probing with the warm-up cell.
  const std::vector<Cell> probes = make_cells(o.workload, o.seed);
  CpuPicker picker(probes.front(), tel);
  picker.repick();

  // Set-up: generate the cell list and run one untimed warm-up cell.
  std::vector<Cell> cells;
  std::vector<double> setups;
  Book warmup(1);
  HostCalibration cal;
  for (int k = 0; k < kSetups; ++k) {
    const double slowdown = cal.slowdown(5);
    const int span = tracer ? spans.open("setup", "setup") : -1;
    const auto t0 = Clock::now();
    cells = make_cells(o.workload, o.seed);
    warmup.count(cells.front().name + " (warm-up)",
                 run_cell(cells.front(), tel));
    setups.push_back(seconds_since(t0) / slowdown);
    if (tracer) spans.close(span);
  }
  const double setup_s = median(setups);
  std::printf("setup: %d set-ups, normalised median %.4f s (min %.4f, max "
              "%.4f)\n",
              kSetups, setup_s, *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()));

  Book book(cells.size());
  book.attempted += warmup.attempted;
  book.failed += warmup.failed;
  book.errors = warmup.errors;

  std::vector<Metric> metrics;
  Series untraced(cells.size(), tel, nullptr);
  if (!o.trace) {
    const auto t0 = Clock::now();
    const auto out_of_time = [&] { return seconds_since(t0) >= o.seconds; };
    run_pass(cells, untraced, book, cal, picker, [] { return false; });
    // Peak RSS over set-up and one run of every cell: later passes add only
    // allocator fragmentation, and how many there are depends on host speed.
    const double rss_mb = peak_rss_mb();
    while (!out_of_time()) {
      run_pass(cells, untraced, book, cal, picker, out_of_time);
    }
    metrics = end_to_end(cells, untraced, setup_s, rss_mb);
  } else {
    picker.repick();
    const int layer_span = spans.open("layers", "layer");
    const LayerCosts costs = measure_layers(spans, layer_span);
    spans.close(layer_span);
    // Traced passes attach a Telemetry to every cell and record spans;
    // they alternate with untraced passes for trace.overhead_pct.
    Series traced(cells.size(), true, &spans);
    const auto t0 = Clock::now();
    const auto out_of_time = [&] { return seconds_since(t0) >= o.seconds; };
    run_pass(cells, untraced, book, cal, picker, [] { return false; });
    run_pass(cells, traced, book, cal, picker, [] { return false; });
    while (!out_of_time()) {
      run_pass(cells, untraced, book, cal, picker, out_of_time);
      run_pass(cells, traced, book, cal, picker, out_of_time);
    }
    metrics = per_layer(o.workload, costs, untraced, traced,
                        totals(traced.first, costs));
  }

  std::printf("cpu: picked %d times by probe cell %s; last pick CPU %d\n",
              picker.picks(), probes.front().name.c_str(), picker.cpu());
  print_fidelity(o.workload, cells, untraced.first);
  std::printf("cell_fail_ratio: %llu / %llu = %.4f\n",
              static_cast<unsigned long long>(book.failed),
              static_cast<unsigned long long>(book.attempted),
              static_cast<double>(book.failed) /
                  static_cast<double>(book.attempted));
  for (const std::string& e : book.errors) {
    std::printf("  FAILED %s\n", e.c_str());
  }
  if (!o.trace) {
    std::printf("end-to-end metrics (times normalised by the host slowdown; "
                "%zu cells):\n",
                cells.size());
    for (const Metric& m : metrics) {
      std::printf("%-18s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  if (!o.fingerprints.empty() &&
      !write_fingerprints(o.fingerprints, o, cells, book)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.fingerprints.c_str());
    return 1;
  }
  if (tracer && !o.spans.empty()) {
    if (!spans.write_chrome_trace(o.spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.spans.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", spans.spans().size(),
                o.spans.c_str());
  }
  print_result(book, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  const std::string err = perfbench::parse(argc, argv, o);
  if (!err.empty()) return perfbench::usage(err);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
