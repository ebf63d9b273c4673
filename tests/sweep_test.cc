// Unit coverage for the pure sweep pipeline (src/sim/sweep.h) and the grid
// side of src/sim/report.h: spec validation, deterministic stable-ordered
// cell expansion, byte-deterministic merging, grid report/pivot rendering,
// and the grid diff's failure semantics (missing/extra cells and axis
// mismatches fail; they are never skipped).
#include "sim/sweep.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sim/json.h"
#include "sim/json_parse.h"
#include "sim/report.h"

namespace tsxhpc::sim {
namespace {

JsonValue parse_ok(const std::string& text) {
  std::string err;
  JsonValue v = JsonParser::parse(text, &err);
  EXPECT_TRUE(err.empty()) << err;
  return v;
}

const char* kSpecText = R"({
  "schema": "tsxhpc-sweepspec-v1",
  "name": "mini",
  "bench": "fig2_stamp",
  "args": ["--ref=0"],
  "quick_args": ["--quick"],
  "full_args": [],
  "axes": [
    {"axis": "scheme", "flag": "--scheme", "values": ["sgl", "tsx"]},
    {"axis": "threads", "flag": "--threads", "values": ["1", "2", "4"]}
  ]
})";

SweepSpec parse_spec_ok(const std::string& text) {
  SweepSpec spec;
  std::string err;
  EXPECT_TRUE(parse_sweep_spec(parse_ok(text), spec, &err)) << err;
  return spec;
}

std::string parse_spec_error(const std::string& text) {
  SweepSpec spec;
  std::string err;
  EXPECT_FALSE(parse_sweep_spec(parse_ok(text), spec, &err)) << text;
  EXPECT_FALSE(err.empty());
  return err;
}

/// One report-compatible run object: `tx_started` transactions of which a
/// tenth abort, 100 cycles each.
void write_run(JsonWriter& w, const std::string& label, std::uint64_t makespan,
               std::uint64_t tx_started, double abort_rate_pct,
               double wasted_pct) {
  const std::uint64_t aborted = tx_started / 10;
  const std::uint64_t committed = tx_started - aborted;
  w.begin_object();
  w.key("label");
  w.value(label);
  w.key("num_threads");
  w.value(std::uint64_t{2});
  w.key("makespan");
  w.value(makespan);
  w.key("totals");
  w.begin_object();
  w.key("tx_started");
  w.value(tx_started);
  w.key("tx_committed");
  w.value(committed);
  w.key("tx_aborted");
  w.value(aborted);
  w.key("abort_rate_pct");
  w.value(abort_rate_pct);
  w.key("wasted_cycle_pct");
  w.value(wasted_pct);
  w.key("tx_cycles_committed");
  w.value(committed * 100);
  w.key("tx_cycles_wasted");
  w.value(aborted * 100);
  w.key("cycles");
  w.begin_object();
  w.key("work");
  w.value(std::uint64_t{4000});
  w.key("tx_committed");
  w.value(committed * 100);
  w.key("tx_wasted");
  w.value(aborted * 100);
  w.key("lock_wait");
  w.value(std::uint64_t{500});
  w.key("fallback");
  w.value(std::uint64_t{300});
  w.key("mem_stall");
  w.value(std::uint64_t{200});
  w.key("total");
  w.value(5000 + tx_started * 100);
  w.end_object();
  w.end_object();
  w.end_object();
}

/// A minimal but report-compatible tsxhpc-telemetry-v4 artifact with one run.
/// `schema` overrides the version string for cross-schema diff tests. A
/// nonzero `setup_makespan` records a transaction-free setup run first, the
/// way vacation and yada do.
std::string make_telemetry(const std::string& label, std::uint64_t makespan,
                           double abort_rate_pct, double wasted_pct,
                           const std::string& schema = "tsxhpc-telemetry-v4",
                           std::uint64_t setup_makespan = 0) {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value(schema);
  w.key("bench");
  w.value("fig2_stamp");
  w.key("runs");
  w.begin_array();
  if (setup_makespan != 0) write_run(w, label, setup_makespan, 0, 0.0, 0.0);
  write_run(w, setup_makespan != 0 ? label + "#2" : label, makespan, 100,
            abort_rate_pct, wasted_pct);
  w.end_array();
  w.end_object();
  return w.str();
}

/// Build a merged artifact for kSpecText with per-cell makespans/rates
/// supplied by the callback.
template <typename Fn>
JsonValue make_grid(const SweepSpec& spec, Fn per_cell) {
  const std::vector<SweepCell> cells = expand_cells(spec);
  std::vector<std::string> artifacts;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    artifacts.push_back(per_cell(cells[i], i));
  }
  return parse_ok(
      merge_sweep(spec, "quick", spec.args_for_scale("quick"), cells,
                  artifacts));
}

TEST(SweepSpec, ParsesAndValidates) {
  const SweepSpec spec = parse_spec_ok(kSpecText);
  EXPECT_EQ(spec.name, "mini");
  EXPECT_EQ(spec.bench, "fig2_stamp");
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].name, "scheme");
  EXPECT_EQ(spec.axes[1].flag, "--threads");
  EXPECT_EQ(spec.cell_count(), 6u);
  const std::vector<std::string> quick = spec.args_for_scale("quick");
  ASSERT_EQ(quick.size(), 2u);
  EXPECT_EQ(quick[0], "--ref=0");
  EXPECT_EQ(quick[1], "--quick");
  EXPECT_EQ(spec.args_for_scale("full").size(), 1u);
}

TEST(SweepSpec, RejectsMalformedSpecs) {
  auto mutate = [](const std::string& from, const std::string& to) {
    std::string s = kSpecText;
    const std::size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    s.replace(at, from.size(), to);
    return s;
  };
  EXPECT_NE(parse_spec_error(mutate("tsxhpc-sweepspec-v1", "bogus-v0"))
                .find("schema"),
            std::string::npos);
  parse_spec_error(mutate("\"name\": \"mini\"", "\"name\": \"\""));
  // Bench must be a binary name; the orchestrator owns path resolution.
  parse_spec_error(mutate("fig2_stamp", "../fig2_stamp"));
  // Axis names feed cell labels, so '=' and '/' are reserved.
  parse_spec_error(mutate("\"axis\": \"scheme\"", "\"axis\": \"sch=eme\""));
  parse_spec_error(mutate("\"axis\": \"scheme\"", "\"axis\": \"sch/eme\""));
  parse_spec_error(mutate("--scheme", "scheme"));  // flags must start with --
  parse_spec_error(mutate("\"axis\": \"threads\"", "\"axis\": \"scheme\""));
  parse_spec_error(mutate("[\"sgl\", \"tsx\"]", "[\"sgl\", \"sgl\"]"));
  parse_spec_error(mutate("[\"sgl\", \"tsx\"]", "[]"));
}

TEST(SweepExpand, StableOrderLastAxisFastest) {
  const SweepSpec spec = parse_spec_ok(kSpecText);
  const std::vector<SweepCell> cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 6u);
  // Committed baselines name cells by these labels — this order is frozen.
  const std::vector<std::string> expected = {
      "scheme=sgl/threads=1", "scheme=sgl/threads=2", "scheme=sgl/threads=4",
      "scheme=tsx/threads=1", "scheme=tsx/threads=2", "scheme=tsx/threads=4",
  };
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].label, expected[i]);
  }
  ASSERT_EQ(cells[4].coords.size(), 2u);
  EXPECT_EQ(cells[4].coords[0], "tsx");
  EXPECT_EQ(cells[4].coords[1], "2");
  ASSERT_EQ(cells[4].flags.size(), 2u);
  EXPECT_EQ(cells[4].flags[0], "--scheme=tsx");
  EXPECT_EQ(cells[4].flags[1], "--threads=2");
}

TEST(SweepExpand, ExpansionIsDeterministic) {
  const SweepSpec spec = parse_spec_ok(kSpecText);
  const std::vector<SweepCell> a = expand_cells(spec);
  const std::vector<SweepCell> b = expand_cells(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].flags, b[i].flags);
  }
}

TEST(SweepMerge, ByteDeterministicAndWellFormed) {
  const SweepSpec spec = parse_spec_ok(kSpecText);
  const std::vector<SweepCell> cells = expand_cells(spec);
  std::vector<std::string> artifacts;
  for (const SweepCell& c : cells) {
    artifacts.push_back(make_telemetry(c.label, 1000, 5.0, 10.0));
  }
  const std::vector<std::string> eff = spec.args_for_scale("quick");
  const std::string merged = merge_sweep(spec, "quick", eff, cells, artifacts);
  EXPECT_EQ(merged, merge_sweep(spec, "quick", eff, cells, artifacts))
      << "merge must be byte-deterministic";

  const JsonValue doc = parse_ok(merged);
  ASSERT_TRUE(is_sweep_doc(doc));
  EXPECT_EQ(doc["schema"].as_string(), kSweepSchema);
  EXPECT_EQ(doc["sweep"].as_string(), "mini");
  EXPECT_EQ(doc["scale"].as_string(), "quick");
  ASSERT_EQ(doc["cells"].size(), 6u);
  const JsonValue& cell = doc["cells"].at(4);
  EXPECT_EQ(cell["cell"].as_string(), "scheme=tsx/threads=2");
  EXPECT_EQ(cell["coords"]["scheme"].as_string(), "tsx");
  EXPECT_EQ(cell["coords"]["threads"].as_string(), "2");
  // The cell's telemetry is spliced verbatim: same schema, same run label.
  EXPECT_EQ(cell["telemetry"]["schema"].as_string(), "tsxhpc-telemetry-v4");
  EXPECT_EQ(cell["telemetry"]["runs"].at(0)["label"].as_string(),
            "scheme=tsx/threads=2");
}

TEST(SweepReport, RendersGridAndScalingCurves) {
  const SweepSpec spec = parse_spec_ok(kSpecText);
  const JsonValue doc = make_grid(spec, [](const SweepCell& c, std::size_t) {
    // Makespan halves per thread doubling: speedup 4.0 at t=4.
    const std::uint64_t t = std::stoull(c.coords[1]);
    return make_telemetry(c.label, 8000 / t, 5.0, 10.0);
  });
  const std::string report = render_sweep_report(doc);
  EXPECT_NE(report.find("scheme(2) x threads(3)"), std::string::npos) << report;
  EXPECT_NE(report.find("scheme=sgl/threads=1"), std::string::npos);
  EXPECT_NE(report.find("scheme=tsx/threads=4"), std::string::npos);
  // Scaling curves: speedup vs the first thread value.
  EXPECT_NE(report.find("4.00"), std::string::npos) << report;
}

TEST(SweepReport, HtmlCellRowsMatchTheTerminalGridView) {
  // Every cell records an untimed setup run before the measured one, like
  // vacation and yada do. The HTML per-cell table must print the terminal
  // grid view's per-cell aggregate, not the first (setup) run.
  const SweepSpec spec = parse_spec_ok(kSpecText);
  const JsonValue doc = make_grid(spec, [](const SweepCell& c, std::size_t i) {
    return make_telemetry(c.label, 1000 + 100 * i, 5.0, 10.0,
                          "tsxhpc-telemetry-v4", /*setup_makespan=*/500);
  });
  const std::string terminal = render_sweep_report(doc);
  const std::string html = render_html(doc);
  const JsonValue& cells = doc["cells"];
  ASSERT_EQ(cells.size(), 6u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string& label = cells.at(i)["cell"].as_string();
    const std::size_t at = terminal.find("  " + label + " ");
    ASSERT_NE(at, std::string::npos) << label << "\n" << terminal;
    std::size_t runs = 0;
    unsigned long long makespan = 0;
    double abort_pct = 0, wasted_pct = 0;
    ASSERT_EQ(std::sscanf(terminal.c_str() + at + 2 + label.size(),
                          "%zu %llu %lf%% %lf%%", &runs, &makespan, &abort_pct,
                          &wasted_pct),
              4)
        << terminal;
    EXPECT_EQ(runs, 2u);
    EXPECT_EQ(makespan, 1500u + 100 * i);
    EXPECT_DOUBLE_EQ(abort_pct, 10.0);  // 10 of 100, from the summed counts
    char row[256];
    std::snprintf(row, sizeof(row),
                  "<tr><td>%s</td><td>%llu</td><td>%.2f%%</td><td>%.2f%%</td>"
                  "</tr>",
                  label.c_str(), makespan, abort_pct, wasted_pct);
    EXPECT_NE(html.find(row), std::string::npos) << row;
  }
}

TEST(SweepPivot, KnownMetricsRenderUnknownInputsFail) {
  const SweepSpec spec = parse_spec_ok(kSpecText);
  const JsonValue doc = make_grid(spec, [](const SweepCell& c, std::size_t) {
    return make_telemetry(c.label, 1000, 5.0, 10.0);
  });
  std::string out;
  ASSERT_TRUE(render_sweep_pivot(doc, "scheme", "threads", "abort-rate", out))
      << out;
  EXPECT_NE(out.find("sgl"), std::string::npos);
  // The pivot recomputes the rate from summed counts (10/100), not from the
  // recorded abort_rate_pct field.
  EXPECT_NE(out.find("10.00"), std::string::npos) << out;
  out.clear();
  ASSERT_TRUE(render_sweep_pivot(doc, "threads", "scheme", "tx_wasted", out))
      << out;
  out.clear();
  EXPECT_FALSE(render_sweep_pivot(doc, "nope", "threads", "abort-rate", out));
  out.clear();
  EXPECT_FALSE(render_sweep_pivot(doc, "scheme", "threads", "bogus", out));
}

TEST(SweepDiff, SelfDiffPasses) {
  const SweepSpec spec = parse_spec_ok(kSpecText);
  const JsonValue doc = make_grid(spec, [](const SweepCell& c, std::size_t) {
    return make_telemetry(c.label, 1000, 5.0, 10.0);
  });
  std::string out;
  EXPECT_EQ(render_sweep_diff(doc, doc, DiffThresholds{}, out), 0) << out;
}

TEST(SweepDiff, MissingOrExtraCellIsAFailure) {
  const SweepSpec full = parse_spec_ok(kSpecText);
  std::string smaller = kSpecText;
  smaller.replace(smaller.find("[\"1\", \"2\", \"4\"]"),
                  std::string("[\"1\", \"2\", \"4\"]").size(), "[\"1\", \"2\"]");
  const SweepSpec sub = parse_spec_ok(smaller);
  auto fill = [](const SweepCell& c, std::size_t) {
    return make_telemetry(c.label, 1000, 5.0, 10.0);
  };
  const JsonValue base = make_grid(full, fill);
  const JsonValue cur = make_grid(sub, fill);
  std::string out;
  // Dropped cells: non-zero failures, reported as mismatches, not skips.
  EXPECT_GT(render_sweep_diff(base, cur, DiffThresholds{}, out), 0);
  EXPECT_NE(out.find("MISMATCH"), std::string::npos) << out;
  EXPECT_EQ(out.find("skipped"), std::string::npos) << out;
  // Extra cells (reverse direction) fail too.
  out.clear();
  EXPECT_GT(render_sweep_diff(cur, base, DiffThresholds{}, out), 0);
  EXPECT_NE(out.find("MISMATCH"), std::string::npos) << out;
}

TEST(SweepDiff, AxisMismatchIsAFailure) {
  const SweepSpec a = parse_spec_ok(kSpecText);
  std::string renamed = kSpecText;
  renamed.replace(renamed.find("\"axis\": \"scheme\""),
                  std::string("\"axis\": \"scheme\"").size(),
                  "\"axis\": \"mode\"");
  const SweepSpec b = parse_spec_ok(renamed);
  auto fill = [](const SweepCell& c, std::size_t) {
    return make_telemetry(c.label, 1000, 5.0, 10.0);
  };
  std::string out;
  EXPECT_GT(render_sweep_diff(make_grid(a, fill), make_grid(b, fill),
                              DiffThresholds{}, out),
            0);
  EXPECT_NE(out.find("AXIS MISMATCH"), std::string::npos) << out;
}

TEST(SweepDiff, EmbeddedRunRegressionIsAFailure) {
  const SweepSpec spec = parse_spec_ok(kSpecText);
  const JsonValue base = make_grid(spec, [](const SweepCell& c, std::size_t) {
    return make_telemetry(c.label, 1000, 5.0, 10.0);
  });
  const JsonValue cur = make_grid(spec, [](const SweepCell& c, std::size_t i) {
    // One cell's abort rate grows by 4pp — past the default 1pp threshold.
    return make_telemetry(c.label, 1000, i == 3 ? 9.0 : 5.0, 10.0);
  });
  std::string out;
  EXPECT_EQ(render_sweep_diff(base, cur, DiffThresholds{}, out), 1) << out;
  EXPECT_NE(out.find("scheme=tsx/threads=1"), std::string::npos) << out;
}

TEST(RenderDiff, SchemaMismatchIsACountedFailureNamingBothVersions) {
  // A v4 baseline diffed against a v5 artifact (or any schema pair) must be
  // a loud, counted failure — never a silent pass on a stale baseline.
  const JsonValue base =
      parse_ok(make_telemetry("a", 1000, 5.0, 10.0, "tsxhpc-telemetry-v4"));
  const JsonValue cur =
      parse_ok(make_telemetry("a", 1000, 5.0, 10.0, "tsxhpc-telemetry-v7"));
  std::string out;
  EXPECT_EQ(render_diff(base, cur, DiffThresholds{}, out), 1) << out;
  EXPECT_NE(out.find("MISMATCH"), std::string::npos) << out;
  EXPECT_NE(out.find("tsxhpc-telemetry-v4"), std::string::npos) << out;
  EXPECT_NE(out.find("tsxhpc-telemetry-v7"), std::string::npos) << out;
  // Reverse direction fails identically; same schema passes.
  out.clear();
  EXPECT_EQ(render_diff(cur, base, DiffThresholds{}, out), 1) << out;
  out.clear();
  EXPECT_EQ(render_diff(cur, cur, DiffThresholds{}, out), 0) << out;
}

TEST(SweepDiff, EmbeddedSchemaMismatchIsAPerCellFailure) {
  const SweepSpec spec = parse_spec_ok(kSpecText);
  const JsonValue base = make_grid(spec, [](const SweepCell& c, std::size_t) {
    return make_telemetry(c.label, 1000, 5.0, 10.0, "tsxhpc-telemetry-v4");
  });
  const JsonValue cur = make_grid(spec, [](const SweepCell& c, std::size_t) {
    return make_telemetry(c.label, 1000, 5.0, 10.0, "tsxhpc-telemetry-v7");
  });
  std::string out;
  // Every cell embeds a mismatched telemetry schema: one failure per cell,
  // each naming both versions.
  EXPECT_EQ(render_sweep_diff(base, cur, DiffThresholds{}, out), 6) << out;
  EXPECT_NE(out.find("tsxhpc-telemetry-v4"), std::string::npos) << out;
  EXPECT_NE(out.find("tsxhpc-telemetry-v7"), std::string::npos) << out;
  EXPECT_NE(out.find("scheme=tsx/threads=4"), std::string::npos) << out;
}

TEST(RenderDiff, LabelSetMismatchFailsBothDirections) {
  const JsonValue base = parse_ok(make_telemetry("a", 1000, 5.0, 10.0));
  const JsonValue cur = parse_ok(make_telemetry("b", 1000, 5.0, 10.0));
  // Run "a" vanished and run "b" appeared: two failures, zero skips.
  std::string out;
  EXPECT_EQ(render_diff(base, cur, DiffThresholds{}, out), 2) << out;
  EXPECT_NE(out.find("MISMATCH"), std::string::npos) << out;
  EXPECT_EQ(out.find("skipped"), std::string::npos) << out;
  out.clear();
  EXPECT_EQ(render_diff(base, base, DiffThresholds{}, out), 0) << out;
}

}  // namespace
}  // namespace tsxhpc::sim
