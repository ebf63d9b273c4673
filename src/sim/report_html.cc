// Self-contained HTML dashboard for tsxhpc artifacts (tsx_report --html=).
//
// Everything is generated inline — CSS in a <style> block, charts as inline
// SVG — so the output is one file with zero external dependencies that
// renders offline and uploads cleanly as a CI artifact. All numbers come
// from the deterministic JSON artifact and are formatted with fixed
// precision, so the dashboard bytes are deterministic too.
//
// Telemetry artifacts (tsxhpc-telemetry-v*) get, per run: a summary strip,
// the concurrency-control table (v7 `cc` block, when present),
// topology-resolved slice/socket tables (v6, sliced/multi-socket machines
// only), per-set heatmaps (v5 `set_stats` block, when present) with
// named-object spans, the interval-sample time series, and the per-site
// policy table; multi-run topology artifacts additionally get makespan
// scaling curves per (map, slices, sockets) combination. Sweep artifacts
// (tsxhpc-sweep-v1) get the per-cell summary plus makespan scaling curves
// along the "threads" axis.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/report.h"
#include "sim/report_detail.h"

namespace tsxhpc::sim {

using namespace report_detail;

namespace {

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::uint64_t vmax(const std::vector<std::uint64_t>& v) {
  std::uint64_t m = 0;
  for (std::uint64_t x : v) m = std::max(m, x);
  return m;
}

// --- SVG pieces -----------------------------------------------------------

/// One heatmap strip: `sets` cells, intensity = value/max on the given base
/// color (r,g,b at full intensity over a near-white background).
void svg_heat_row(std::string& out, const std::vector<std::uint64_t>& v,
                  std::uint64_t max, int y, int r, int g, int b,
                  const char* label) {
  const int cell = 9, h = 14;
  appendf(out,
          "<text x=\"0\" y=\"%d\" class=\"lbl\">%s</text>", y + h - 3, label);
  for (std::size_t s = 0; s < v.size(); ++s) {
    const double t =
        max == 0 ? 0.0 : static_cast<double>(v[s]) / static_cast<double>(max);
    const int cr = 245 + static_cast<int>(t * (r - 245));
    const int cg = 245 + static_cast<int>(t * (g - 245));
    const int cb = 245 + static_cast<int>(t * (b - 245));
    appendf(out,
            "<rect x=\"%zu\" y=\"%d\" width=\"%d\" height=\"%d\" "
            "fill=\"rgb(%d,%d,%d)\"><title>set %zu: %llu</title></rect>",
            90 + s * cell, y, cell - 1, h - 1, cr, cg, cb, s,
            static_cast<unsigned long long>(v[s]));
  }
}

/// Normalized polyline for one sample column.
void svg_series(std::string& out, const std::vector<std::uint64_t>& v,
                int w, int h, const char* color) {
  if (v.empty()) return;
  const std::uint64_t max = vmax(v);
  std::string pts;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double x = v.size() == 1
                         ? 0.0
                         : static_cast<double>(i) * w /
                               static_cast<double>(v.size() - 1);
    const double y =
        max == 0 ? h
                 : h - static_cast<double>(v[i]) * h / static_cast<double>(max);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f,%.1f ", x, y);
    pts += buf;
  }
  appendf(out,
          "<polyline fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\" "
          "points=\"%s\"/>",
          color, pts.c_str());
}

using NamedSeries = std::pair<std::string, std::vector<std::uint64_t>>;

/// A line chart of named series, each normalized to its own max and colored
/// from a fixed palette, followed by the open legend <div>; the caller
/// appends its axis note and closes the div.
void svg_chart(std::string& out, int height,
               const std::vector<NamedSeries>& series) {
  static const char* kPalette[] = {"#2a7a2a", "#c03030", "#3050c0", "#c08020",
                                   "#703090", "#208080", "#806020", "#404040"};
  appendf(out, "<svg width=\"640\" height=\"%d\" class=\"chart\">", height);
  for (std::size_t i = 0; i < series.size(); ++i) {
    svg_series(out, series[i].second, 630, height - 10, kPalette[i % 8]);
  }
  out += "</svg><div class=\"legend\">";
  for (std::size_t i = 0; i < series.size(); ++i) {
    appendf(out, "<span style=\"color:%s\">— %s</span> ", kPalette[i % 8],
            html_escape(series[i].first).c_str());
  }
}

// --- Telemetry sections ---------------------------------------------------

void emit_run_summary(std::string& out, const JsonValue& run) {
  const JsonValue& totals = run["totals"];
  out += "<div class=\"cards\">";
  const struct {
    const char* label;
    std::string value;
  } cards[] = {
      {"makespan", std::to_string(run["makespan"].as_u64())},
      {"threads", std::to_string(run["num_threads"].as_u64())},
      {"tx started", std::to_string(totals["tx_started"].as_u64())},
      {"tx committed", std::to_string(totals["tx_committed"].as_u64())},
      {"abort rate",
       [&] {
         char b[32];
         std::snprintf(b, sizeof(b), "%.2f%%",
                       totals["abort_rate_pct"].as_double());
         return std::string(b);
       }()},
      {"wasted cycles",
       [&] {
         char b[32];
         std::snprintf(b, sizeof(b), "%.2f%%",
                       totals["wasted_cycle_pct"].as_double());
         return std::string(b);
       }()},
  };
  for (const auto& c : cards) {
    appendf(out,
            "<div class=\"card\"><div class=\"k\">%s</div>"
            "<div class=\"v\">%s</div></div>",
            c.label, c.value.c_str());
  }
  out += "</div>";
}

/// Topology-resolved tables (v6 artifacts): per-slice and per-socket event
/// counters plus the hop summary. Skipped for the default 1-socket/1-slice
/// machine, whose reports look exactly as they always did.
void emit_topology(std::string& out, const JsonValue& run) {
  const JsonValue& topo = run["topology"];
  if (!has_interconnect(topo)) return;
  appendf(out,
          "<h3>Topology</h3><div class=\"legend\">%llu socket(s) × %llu "
          "cores/socket, %llu LLC slice(s), map=%s, hop cycles "
          "slice=%llu/socket=%llu</div>",
          static_cast<unsigned long long>(topo["sockets"].as_u64()),
          static_cast<unsigned long long>(topo["cores_per_socket"].as_u64()),
          static_cast<unsigned long long>(topo["slices"].as_u64()),
          html_escape(topo["map"].as_string()).c_str(),
          static_cast<unsigned long long>(topo["lat_hop_slice"].as_u64()),
          static_cast<unsigned long long>(topo["lat_hop_socket"].as_u64()));
  const JsonValue& ss = topo["slice_stats"];
  if (ss.size() != 0) {
    out += "<table><tr><th>slice</th><th>hits</th><th>misses</th>"
           "<th>evictions</th><th>xfers</th></tr>";
    for (std::size_t s = 0; s < ss.size(); ++s) {
      const JsonValue& sl = ss.at(s);
      appendf(out,
              "<tr><td>s%zu</td><td>%llu</td><td>%llu</td><td>%llu</td>"
              "<td>%llu</td></tr>",
              s, static_cast<unsigned long long>(sl["hits"].as_u64()),
              static_cast<unsigned long long>(sl["misses"].as_u64()),
              static_cast<unsigned long long>(sl["evictions"].as_u64()),
              static_cast<unsigned long long>(sl["xfers"].as_u64()));
    }
    out += "</table>";
  }
  const JsonValue& so = topo["socket_stats"];
  if (so.size() != 0) {
    out += "<table><tr><th>socket</th><th>accesses</th><th>dram local</th>"
           "<th>dram remote</th><th>slice hops</th><th>socket hops</th></tr>";
    for (std::size_t s = 0; s < so.size(); ++s) {
      const JsonValue& sk = so.at(s);
      appendf(out,
              "<tr><td>%zu</td><td>%llu</td><td>%llu</td><td>%llu</td>"
              "<td>%llu</td><td>%llu</td></tr>",
              s, static_cast<unsigned long long>(sk["accesses"].as_u64()),
              static_cast<unsigned long long>(sk["dram_local"].as_u64()),
              static_cast<unsigned long long>(sk["dram_remote"].as_u64()),
              static_cast<unsigned long long>(sk["slice_hops"].as_u64()),
              static_cast<unsigned long long>(sk["socket_hops"].as_u64()));
    }
    out += "</table>";
  }
}

/// Scaling curves over a multi-run topology artifact (ablation_topology's
/// internal map × threads sweep) or a sweep grid whose cells carry such
/// runs: one makespan polyline per (map, slices, sockets) combination, x
/// ordered by each run's thread count. Emitted only when some combination
/// has at least two runs.
void emit_topology_scaling(std::string& out, const JsonValue& doc) {
  std::map<std::string, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      groups;  // key -> (threads, makespan)
  const auto collect = [&groups](const JsonValue& runs) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const JsonValue& run = runs.at(i);
      const JsonValue& topo = run["topology"];
      if (!has_interconnect(topo)) continue;
      const std::string key =
          topo["map"].as_string() + "/s" +
          std::to_string(topo["slices"].as_u64()) + "/" +
          std::to_string(topo["sockets"].as_u64()) + "skt";
      groups[key].emplace_back(run["num_threads"].as_u64(),
                               run["makespan"].as_u64());
    }
  };
  collect(doc["runs"]);
  const JsonValue& cells = doc["cells"];
  for (std::size_t c = 0; c < cells.size(); ++c) {
    collect(cells.at(c)["telemetry"]["runs"]);
  }
  bool any = false;
  for (const auto& [key, points] : groups) any |= points.size() >= 2;
  if (!any) return;
  out += "<section><h2>Topology scaling</h2><h3>Makespan vs sockets × "
         "threads</h3>";
  std::vector<NamedSeries> series;
  for (auto& [key, points] : groups) {
    std::sort(points.begin(), points.end());
    series.push_back({key, {}});
    for (const auto& [threads, makespan] : points) {
      series.back().second.push_back(makespan);
    }
  }
  svg_chart(out, 160, series);
  out += "(x: thread counts ascending; y: makespan, each line normalized to "
         "its own max)</div></section>";
}

void emit_set_heatmaps(std::string& out, const JsonValue& run) {
  const JsonValue& ss = run["set_stats"];
  if (!ss.is_object()) return;
  out += "<h3>Per-set heatmaps</h3>";
  const JsonValue& levels = ss["levels"];
  for (std::size_t li = 0; li < levels.size(); ++li) {
    const JsonValue& lv = levels.at(li);
    const auto occupancy = u64_column(lv, "occupancy");
    const auto evictions = u64_column(lv, "evictions");
    const auto dooms = doom_column(lv);
    const std::size_t sets = occupancy.size();
    appendf(out, "<div class=\"lvl\"><b>%s</b> (%llu sets × %llu ways)",
            html_escape(lv["level"].as_string()).c_str(),
            static_cast<unsigned long long>(lv["sets"].as_u64()),
            static_cast<unsigned long long>(lv["ways"].as_u64()));
    appendf(out, "<svg width=\"%zu\" height=\"48\">", 90 + sets * 9 + 4);
    svg_heat_row(out, occupancy, lv["ways"].as_u64(), 0, 40, 90, 200,
                 "occupancy");
    svg_heat_row(out, evictions, vmax(evictions), 16, 230, 140, 30,
                 "evictions");
    svg_heat_row(out, dooms, vmax(dooms), 32, 200, 40, 40, "dooms");
    out += "</svg></div>";
  }
  const JsonValue& objects = ss["objects"];
  if (objects.size() != 0) {
    out += "<table><tr><th>object</th><th>bytes</th><th>lines</th>"
           "<th>l1 sets</th><th>llc sets</th></tr>";
    for (std::size_t i = 0; i < objects.size(); ++i) {
      const JsonValue& o = objects.at(i);
      appendf(out,
              "<tr><td>%s</td><td>%llu</td><td>%llu</td>"
              "<td>%llu+%llu</td><td>%llu+%llu</td></tr>",
              html_escape(o["name"].as_string()).c_str(),
              static_cast<unsigned long long>(o["bytes"].as_u64()),
              static_cast<unsigned long long>(o["lines"].as_u64()),
              static_cast<unsigned long long>(o["l1_set_start"].as_u64()),
              static_cast<unsigned long long>(o["l1_sets_covered"].as_u64()),
              static_cast<unsigned long long>(o["llc_set_start"].as_u64()),
              static_cast<unsigned long long>(o["llc_sets_covered"].as_u64()));
    }
    out += "</table>";
  }
}

/// Concurrency-control table (v7 `cc` block): the CcBackend seam's
/// region-level attempt chain and abort classes, plus whichever
/// scheme-specific extras are nonzero (TicToc rts extensions, MVCC
/// snapshot/version/GC accounting).
void emit_cc(std::string& out, const JsonValue& run) {
  const JsonValue& cc = run["cc"];
  if (!cc.is_object()) return;
  const JsonValue& cls = cc["aborts_by_class"];
  appendf(out,
          "<h3>Concurrency control <small>(%s)</small></h3>"
          "<table><tr><th>starts</th><th>commits</th><th>aborts</th>"
          "<th>abort rate</th><th>read-val</th><th>lock-acq</th>"
          "<th>commit-val</th></tr>"
          "<tr><td>%llu</td><td>%llu</td><td>%llu</td><td>%.2f%%</td>"
          "<td>%llu</td><td>%llu</td><td>%llu</td></tr></table>",
          html_escape(cc["scheme"].as_string()).c_str(),
          static_cast<unsigned long long>(cc["starts"].as_u64()),
          static_cast<unsigned long long>(cc["commits"].as_u64()),
          static_cast<unsigned long long>(cc["aborts"].as_u64()),
          cc["abort_rate_pct"].as_double(),
          static_cast<unsigned long long>(cls["read_validation"].as_u64()),
          static_cast<unsigned long long>(cls["lock_acquire"].as_u64()),
          static_cast<unsigned long long>(cls["commit_validation"].as_u64()));
  if (cc["read_set_extensions"].as_u64() != 0) {
    appendf(out, "<div class=\"legend\">rts extensions: %llu</div>",
            static_cast<unsigned long long>(
                cc["read_set_extensions"].as_u64()));
  }
  if (cc["snapshot_commits"].as_u64() != 0 ||
      cc["versions_created"].as_u64() != 0) {
    appendf(out,
            "<div class=\"legend\">mvcc: snapshot-commits=%llu "
            "versions=%llu chain-hops=%llu depth-max=%llu gc-runs=%llu "
            "gc-reclaims=%llu</div>",
            static_cast<unsigned long long>(cc["snapshot_commits"].as_u64()),
            static_cast<unsigned long long>(cc["versions_created"].as_u64()),
            static_cast<unsigned long long>(
                cc["version_chain_hops"].as_u64()),
            static_cast<unsigned long long>(
                cc["version_chain_depth_max"].as_u64()),
            static_cast<unsigned long long>(cc["gc_runs"].as_u64()),
            static_cast<unsigned long long>(cc["gc_reclaims"].as_u64()));
  }
}

void emit_samples(std::string& out, const JsonValue& run) {
  const JsonValue& samples = run["samples"];
  if (!samples.is_object() || samples["count"].as_u64() == 0) return;
  out += "<h3>Interval time series</h3>";
  std::vector<NamedSeries> series;
  for (const char* key :
       {"tx_committed", "tx_aborted", "llc_misses", "mem_stall"}) {
    series.push_back({key, u64_column(samples, key)});
  }
  svg_chart(out, 130, series);
  appendf(out, "(interval=%llu cycles, %llu buckets; each line normalized "
               "to its own max)</div>",
          static_cast<unsigned long long>(samples["interval_cycles"].as_u64()),
          static_cast<unsigned long long>(samples["count"].as_u64()));
}

void emit_locks(std::string& out, const JsonValue& run) {
  const JsonValue& locks = run["locks"];
  if (locks.size() == 0) return;
  out += "<h3>Lock sites &amp; policy decisions</h3>"
         "<table><tr><th>site</th><th>kind</th><th>acquires</th>"
         "<th>elided</th><th>fallbacks</th><th>elision</th><th>aborts</th>"
         "<th>retry</th><th>backoff</th><th>lock-wait</th><th>fallback</th>"
         "<th>skip</th></tr>";
  for (std::size_t i = 0; i < locks.size(); ++i) {
    const JsonValue& lk = locks.at(i);
    const JsonValue& p = lk["policy"];
    appendf(out,
            "<tr><td>%s</td><td>%s</td><td>%llu</td><td>%llu</td>"
            "<td>%llu</td><td>%.1f%%</td><td>%llu</td><td>%llu</td>"
            "<td>%llu</td><td>%llu</td><td>%llu</td><td>%llu</td></tr>",
            html_escape(lk["site"].as_string()).c_str(),
            html_escape(lk["kind"].as_string()).c_str(),
            static_cast<unsigned long long>(lk["acquires"].as_u64()),
            static_cast<unsigned long long>(lk["elided_commits"].as_u64()),
            static_cast<unsigned long long>(lk["fallback_acquires"].as_u64()),
            lk["elision_rate_pct"].as_double(),
            static_cast<unsigned long long>(lk["tx_aborts"].as_u64()),
            static_cast<unsigned long long>(p["retries"].as_u64()),
            static_cast<unsigned long long>(p["backoffs"].as_u64()),
            static_cast<unsigned long long>(p["lock_waits"].as_u64()),
            static_cast<unsigned long long>(p["fallbacks"].as_u64()),
            static_cast<unsigned long long>(p["skips"].as_u64()));
  }
  out += "</table>";
}

void emit_telemetry_doc(std::string& out, const JsonValue& doc) {
  const JsonValue& runs = doc["runs"];
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const JsonValue& run = runs.at(i);
    appendf(out, "<section><h2>run %s <small>(%s backend)</small></h2>",
            html_escape(run["label"].as_string()).c_str(),
            html_escape(run["backend"].as_string()).c_str());
    emit_run_summary(out, run);
    emit_cc(out, run);
    emit_topology(out, run);
    emit_set_heatmaps(out, run);
    emit_samples(out, run);
    emit_locks(out, run);
    out += "</section>";
  }
  emit_topology_scaling(out, doc);
}

// --- Sweep sections -------------------------------------------------------

void emit_sweep_doc(std::string& out, const JsonValue& doc) {
  const JsonValue& cells = doc["cells"];
  appendf(out, "<section><h2>sweep %s <small>(scale %s, %zu cells)</small>"
               "</h2>",
          html_escape(doc["sweep"].as_string()).c_str(),
          html_escape(doc["scale"].as_string()).c_str(), cells.size());

  // Per-cell summary table: the terminal grid view's per-cell aggregate.
  out += "<table><tr><th>cell</th><th>makespan</th><th>abort rate</th>"
         "<th>wasted</th></tr>";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const JsonValue& cell = cells.at(i);
    const CellMetrics m = cell_metrics(cell);
    appendf(out,
            "<tr><td>%s</td><td>%llu</td><td>%.2f%%</td><td>%.2f%%</td></tr>",
            html_escape(cell["cell"].as_string()).c_str(),
            static_cast<unsigned long long>(m.makespan), m.abort_rate_pct(),
            m.wasted_cycle_pct());
  }
  out += "</table>";

  // Scaling curves along the "threads" axis, one polyline per combination
  // of the remaining axes. Without a threads axis (e.g. the topology grid
  // sweeps map × slices and each cell's bench scales threads internally)
  // only the topology scaling section below applies.
  if (const std::optional<ScalingCurves> sc = scaling_curves(doc)) {
    out += "<h3>Makespan vs threads</h3>";
    std::vector<NamedSeries> series;
    for (const auto& g : sc->groups) series.push_back({g.label, g.makespan});
    svg_chart(out, 160, series);
    out += "(x: threads-axis values in axis order; y: makespan, each line "
           "normalized to its own max)</div>";
  }
  out += "</section>";
  emit_topology_scaling(out, doc);
}

}  // namespace

std::string render_html(const JsonValue& doc) {
  const bool sweep = is_sweep_doc(doc);
  std::string out;
  out +=
      "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
      "<title>tsxhpc report</title><style>"
      "body{font-family:system-ui,sans-serif;margin:24px;color:#222}"
      "h2{border-bottom:1px solid #ddd;padding-bottom:4px}"
      "small{color:#888;font-weight:normal}"
      "table{border-collapse:collapse;margin:8px 0;font-size:13px}"
      "td,th{border:1px solid #ccc;padding:3px 8px;text-align:right}"
      "td:first-child,th:first-child{text-align:left}"
      ".cards{display:flex;gap:12px;flex-wrap:wrap;margin:8px 0}"
      ".card{border:1px solid #ddd;border-radius:6px;padding:6px 12px}"
      ".card .k{font-size:11px;color:#888}.card .v{font-size:17px}"
      ".lvl{margin:6px 0}.lbl{font-size:10px;fill:#555}"
      ".chart{border:1px solid #eee;margin-top:4px}"
      ".legend{font-size:12px;color:#555;margin-bottom:10px}"
      "section{margin-bottom:28px}"
      "</style></head><body>";
  appendf(out, "<h1>tsxhpc %s report</h1><div class=\"legend\">bench=%s "
               "schema=%s</div>",
          sweep ? "sweep" : "telemetry",
          html_escape(doc["bench"].as_string()).c_str(),
          html_escape(doc["schema"].as_string()).c_str());
  if (sweep) {
    emit_sweep_doc(out, doc);
  } else {
    emit_telemetry_doc(out, doc);
  }
  out += "</body></html>\n";
  return out;
}

}  // namespace tsxhpc::sim
