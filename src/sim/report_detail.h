// Artifact computations shared by the two report renderers — the terminal
// views (report.cc) and the HTML dashboard (report_html.cc) — so both print
// the same numbers for the same artifact. Internal to src/sim: the public
// API is sim/report.h.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/json_parse.h"

namespace tsxhpc::sim::report_detail {

/// printf-append to `out`, of any length.
void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// A JSON array of unsigned counters, e.g. one per-set column of a
/// set_stats level or one interval-sample column.
std::vector<std::uint64_t> u64_column(const JsonValue& obj, const char* key);

/// Per-set capacity dooms of one set_stats level (write + read dooms).
std::vector<std::uint64_t> doom_column(const JsonValue& level);

/// True when a run's v6 topology block describes a machine with an actual
/// interconnect — more than one socket or LLC slice. The default
/// 1-socket/1-slice machine renders without topology sections.
bool has_interconnect(const JsonValue& topo);

/// One sweep cell's aggregate over every run embedded in its telemetry:
/// counters and cycle buckets are summed (a cell whose bench records phases
/// — e.g. vacation's setup run plus the measured one — contributes both),
/// makespans are summed (the phases run back to back), and rates are
/// recomputed from the summed counts.
struct CellMetrics {
  std::uint64_t makespan = 0;
  std::uint64_t tx_started = 0;
  std::uint64_t tx_committed = 0;
  std::uint64_t tx_aborted = 0;
  std::uint64_t tx_cycles_committed = 0;
  std::uint64_t tx_cycles_wasted = 0;
  std::uint64_t buckets[6] = {};  // cycle buckets, in artifact order
  std::uint64_t cycles_total = 0;
  std::size_t runs = 0;

  double abort_rate_pct() const;
  double wasted_cycle_pct() const;
  double bucket_pct(std::size_t b) const;
};

CellMetrics cell_metrics(const JsonValue& cell);

/// Makespan scaling curves of a sweep grid along its "threads" axis: one
/// group per combination of the remaining axes, in grid order.
struct ScalingCurves {
  struct Group {
    std::string label;                    // "workload=genome/scheme=tsx"
    std::vector<std::uint64_t> makespan;  // per threads value (cell_metrics)
  };
  std::vector<std::string> threads;  // the threads axis values, axis order
  std::vector<Group> groups;
};

/// Empty when the grid has no "threads" axis.
std::optional<ScalingCurves> scaling_curves(const JsonValue& doc);

}  // namespace tsxhpc::sim::report_detail
