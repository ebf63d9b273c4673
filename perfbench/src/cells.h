// The benchmark's workloads, cut into cells. A cell is one call of a
// workload function — one point of a paper figure — run on a fresh Machine
// on the fiber backend. Each cell returns what the benchmark checks and
// counts: the measured regions' RunStats totals, the CC counters, the
// output checksum and a fingerprint of every simulated statistic.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/stats.h"
#include "sim/telemetry.h"
#include "spans.h"

namespace perfbench {

namespace sim = tsxhpc::sim;

enum class Workload { kStampHtm, kStampStm, kSyncNet };

const char* to_string(Workload w);
bool workload_from_name(const std::string& name, Workload* out);
const std::vector<Workload>& all_workloads();

/// Whether the workload's cells attach a Telemetry and serialise it, as
/// every tools/sweep cell does with --json= (stamp_stm only).
bool workload_attaches_telemetry(Workload w);

/// What one cell run produced.
struct CellResult {
  bool ok = true;
  std::string error;  // first failed check, empty when ok

  /// Sums over the cell's measured regions (the RunStats a workload
  /// function returns; setup regions such as vacation's populate step are
  /// not included, exactly as in the figure binaries).
  sim::ThreadStats total;
  sim::Cycles makespan = 0;
  /// Estimated engine token handoffs: thread-cycles over the scheduler
  /// quantum, for multi-threaded regions.
  double handoffs_est = 0;

  sim::CcStats cc;  // scheme is empty when the cell ran no TM runtime
  std::uint64_t checksum = 0;
  /// Hash of the makespan, checksum and every RunStats/CcStats total.
  std::uint64_t fingerprint = 0;

  // Filled only when a Telemetry was attached.
  std::uint64_t sections = 0;        // elided/monitor/lockset sections
  std::uint64_t elided_commits = 0;  // sections that committed in hardware
  std::uint64_t fallbacks = 0;       // sections that took the lock
  double tx_lines_est = 0;           // from the footprint histograms
  double json_ms = 0;                // serialising the artifact
};

struct Cell {
  std::string name;   // e.g. "bayes/tsx/t4"
  /// Cells of one group must return the same nonzero checksum; the first
  /// cell of a group in list order is the reference. Empty: only nonzero.
  std::string group;
  /// Paper Table 1 tsx abort rate for this cell, or a negative value.
  double paper_abort_pct = -1;
  std::function<CellResult(sim::Telemetry*)> run;
};

/// The cells of one pass over `w`, generated from `seed`.
std::vector<Cell> make_cells(Workload w, std::uint64_t seed);

/// Run one cell, attaching (and serialising) a fresh Telemetry when
/// `telemetry` is set. Exceptions become a failed result. With `spans`,
/// the workload call and the serialisation are recorded under `parent`.
CellResult run_cell(const Cell& cell, bool telemetry, Spans* spans = nullptr,
                    int parent = -1);

/// Mark `r` failed; the first reason given is kept.
void fail(CellResult& r, const std::string& why);

/// Cross-cell checksum checks over the first `count` cells of one pass:
/// marks every cell whose checksum differs from its group's reference as
/// failed.
void check_groups(const std::vector<Cell>& cells,
                  std::vector<CellResult>& results, std::size_t count);

}  // namespace perfbench
