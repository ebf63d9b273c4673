// Tests for the structured telemetry layer: determinism of the exported
// artifacts, zero observer effect on simulated timing, attempt-ring
// bounding, and the tsx_report rendering of a real artifact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "artifact_violations.h"
#include "sim/check.h"
#include "sim/json_parse.h"
#include "sim/machine.h"
#include "sim/report.h"
#include "sim/shared.h"
#include "sim/telemetry.h"
#include "sync/elision.h"

namespace tsxhpc::sim {
namespace {

/// A small contended workload exercising elision commits, retries,
/// fallbacks, conflicts and futex traffic — every telemetry hook fires.
RunStats contended_run(Telemetry* tel, int threads = 4, int iters = 60,
                       std::string label = {}) {
  MachineConfig cfg;
  cfg.telemetry = tel;
  Machine m(cfg);
  sync::ElidedLock lock(m);
  auto cells = SharedArray<std::uint64_t>::alloc(m, 8, 0);
  return m.run({.threads = threads, .body = [&](Context& c) {
    for (int i = 0; i < iters; ++i) {
      lock.critical(c, [&] {
        auto cell = cells.at((c.tid() + i) % 8);
        cell.store(c, cell.load(c) + 1);
        c.compute(80);
      });
    }
  }, .label = std::move(label)});
}

TEST(Telemetry, ExportsAreByteIdenticalAcrossRuns) {
  TelemetryOptions opt;
  opt.collect_attempts = true;
  Telemetry a(opt);
  Telemetry b(opt);
  contended_run(&a, 4, 60, "golden");
  contended_run(&b, 4, 60, "golden");
  EXPECT_EQ(a.json("telemetry_test"), b.json("telemetry_test"));
  EXPECT_EQ(a.chrome_trace(), b.chrome_trace());
  // And the artifact is non-trivial: the run actually recorded something.
  ASSERT_EQ(a.runs().size(), 1u);
  EXPECT_TRUE(a.runs()[0].complete);
  EXPECT_GT(a.runs()[0].stats.total().tx_committed, 0u);
}

TEST(Telemetry, FileExportsAreAtomicRenames) {
  Telemetry tel;
  contended_run(&tel, 2, 20, "atomic");
  const std::string path = ::testing::TempDir() + "telemetry_test_atomic.json";
  ASSERT_TRUE(tel.write_chrome_trace(path));
  // The export stages to <path>.tmp and renames into place: the artifact
  // exists with the full contents, the staging file does not.
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  EXPECT_EQ(std::fopen((path + ".tmp").c_str(), "r"), nullptr);
  std::remove(path.c_str());
  // A failing write (unwritable directory) reports false and leaves neither
  // the artifact nor a stray .tmp behind.
  EXPECT_FALSE(tel.write_chrome_trace("/nonexistent-dir/t.json"));
}

TEST(Telemetry, AttachingDoesNotPerturbSimulatedTiming) {
  Telemetry tel;
  const RunStats with = contended_run(&tel);
  const RunStats without = contended_run(nullptr);
  EXPECT_EQ(with.makespan, without.makespan);
  EXPECT_EQ(with.total().tx_started, without.total().tx_started);
  EXPECT_EQ(with.total().l1_misses, without.total().l1_misses);
}

TEST(Telemetry, RecordsLockSitesAndAttemptChains) {
  TelemetryOptions opt;
  opt.collect_attempts = true;
  Telemetry tel(opt);
  contended_run(&tel);
  const RunRecord& r = tel.runs().at(0);

  // The elided lock registered exactly one site, with outcomes accounted.
  ASSERT_EQ(r.locks.size(), 1u);
  const LockSiteStats& site = r.locks.begin()->second;
  EXPECT_EQ(site.kind, LockKind::kElided);
  EXPECT_GT(site.elided_commits, 0u);
  EXPECT_EQ(site.elided_commits + site.fallback_acquires, 4u * 60u);
  EXPECT_GT(site.elision_rate(), 0.0);
  EXPECT_LE(site.elision_rate(), 1.0);

  // Attempt records are per-thread chronological (threads interleave in the
  // ring in completion order, but each thread's clock only moves forward)
  // and attributed to that site.
  const auto attempts = r.attempts_in_order();
  ASSERT_FALSE(attempts.empty());
  std::map<ThreadId, Cycles> last_end;
  for (const auto& rec : attempts) {
    EXPECT_GE(rec.end, rec.start);
    EXPECT_GE(rec.end, last_end[rec.tid]);
    last_end[rec.tid] = rec.end;
    if (!rec.fallback) {
      EXPECT_EQ(rec.site, r.locks.begin()->first);
    }
  }
  // Lineage aggregates cover every section outcome.
  std::uint64_t sections = 0;
  for (auto n : r.committed_by_attempt) sections += n;
  for (auto n : r.fallback_after_attempts) sections += n;
  EXPECT_EQ(sections, 4u * 60u);
}

TEST(Telemetry, PolicyDecisionsReconcileWithAbortsAndFallbacks) {
  // The checker's lock-site rules: one decision per abort, one fallback or
  // skip per real acquisition; and backoff stays within tx_wasted.
  Telemetry tel;
  contended_run(&tel);
  const RunRecord& r = tel.runs().at(0);
  ASSERT_EQ(r.locks.size(), 1u);
  EXPECT_GT(r.locks.begin()->second.policy_decisions_total(), 0u);
  EXPECT_EQ(artifact_violations(tel), std::vector<std::string>{});
}

TEST(Telemetry, AttemptRingDropsOldestWhenFull) {
  TelemetryOptions opt;
  opt.collect_attempts = true;
  opt.max_attempts = 16;
  Telemetry tel(opt);
  contended_run(&tel);
  const RunRecord& r = tel.runs().at(0);
  EXPECT_EQ(r.attempts.size(), 16u);
  EXPECT_GT(r.attempts_dropped, 0u);
  // The unrolled ring holds the *latest* records, per-thread in order.
  const auto attempts = r.attempts_in_order();
  ASSERT_EQ(attempts.size(), 16u);
  std::map<ThreadId, Cycles> last_end;
  for (const auto& rec : attempts) {
    EXPECT_GE(rec.end, last_end[rec.tid]);
    last_end[rec.tid] = rec.end;
  }
}

TEST(Telemetry, RunLabelsAdoptAndSuffix) {
  Telemetry tel;
  contended_run(&tel, 2, 4, "sweep/t4");
  // Re-announcing the same label means "another run of the same region":
  // the sticky suffixing kicks in.
  contended_run(&tel, 2, 4, "sweep/t4");
  contended_run(&tel, 2, 4);
  ASSERT_EQ(tel.runs().size(), 3u);
  EXPECT_EQ(tel.runs()[0].label, "sweep/t4");
  EXPECT_EQ(tel.runs()[1].label, "sweep/t4#2");
  EXPECT_EQ(tel.runs()[2].label, "sweep/t4#3");
}

/// Minimal structural JSON check: balanced braces/brackets outside strings,
/// no trailing garbage. Catches emitter bugs (unclosed scopes, stray commas
/// would unbalance nothing but malformed escapes would).
void expect_balanced_json(const std::string& s) {
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_str) {
      if (c == '\\')
        ++i;
      else if (c == '"')
        in_str = false;
    } else if (c == '"') {
      in_str = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_FALSE(in_str);
  EXPECT_EQ(depth, 0);
}

TEST(Telemetry, JsonAndTraceAreStructurallyValid) {
  TelemetryOptions opt;
  opt.collect_attempts = true;
  Telemetry tel(opt);
  contended_run(&tel, 4, 60, "validity");
  const std::string j = tel.json("telemetry_test");
  expect_balanced_json(j);
  EXPECT_NE(j.find("\"schema\":\"tsxhpc-telemetry-v7\""), std::string::npos);
  EXPECT_NE(j.find("\"label\":\"validity\""), std::string::npos);
  EXPECT_NE(j.find("\"backoff_cycles\""), std::string::npos);
  EXPECT_NE(j.find("\"policy\""), std::string::npos);
  EXPECT_NE(j.find("\"llc_misses\""), std::string::npos);
  EXPECT_NE(j.find("\"mem_stall\""), std::string::npos);
  const std::string t = tel.chrome_trace();
  expect_balanced_json(t);
  EXPECT_NE(t.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(t.find("\"txn commit\""), std::string::npos);
}

TEST(Telemetry, V5SampleColumnsSumToRunTotals) {
  // The v5 interval columns (llc_misses, mem_stall) get an end_run tail
  // flush into the last bucket, so each column sums exactly to the run
  // total, as the checker's sample rules require. (The v4 l1 columns
  // deliberately keep their frozen, unflushed semantics — goldens depend on
  // those bytes.)
  Telemetry tel;
  contended_run(&tel, 4, 60, "sums");
  ASSERT_FALSE(tel.runs().at(0).samples.empty());
  EXPECT_EQ(artifact_violations(tel), std::vector<std::string>{});
}

TEST(Telemetry, RenderReportMatchesTheArtifactTotals) {
  // The counter report (tsx_report, bench --report) renders from the
  // serialized artifact; its headline lines must restate the totals.
  Telemetry tel;
  contended_run(&tel, 4, 60, "report");
  std::string err;
  const JsonValue doc = JsonParser::parse(tel.json("telemetry_test"), &err);
  ASSERT_TRUE(err.empty()) << err;
  const std::string report = render_report(doc);
  const JsonValue& totals = doc["runs"].at(0)["totals"];
  const std::uint64_t started = totals["tx_started"].as_u64();
  const std::uint64_t aborted = totals["tx_aborted"].as_u64();
  ASSERT_GT(aborted, 0u) << "the run must be contended";
  EXPECT_EQ(check_artifact(doc), std::vector<std::string>{});

  const auto expect_line = [&report](const char* fmt, auto... args) {
    char line[160];
    std::snprintf(line, sizeof(line), fmt, args...);
    EXPECT_NE(report.find(line), std::string::npos)
        << "missing: " << line << "\n" << report;
  };
  const auto pct = [started](std::uint64_t n) {
    return 100.0 * static_cast<double>(n) / static_cast<double>(started);
  };
  // The abort tree: started, committed/aborted shares, then one branch per
  // nonzero cause, the last one closing the tree.
  expect_line("  transactions: started=%llu\n",
              static_cast<unsigned long long>(started));
  expect_line("  |- committed  %12llu  (%5.1f%%)\n",
              static_cast<unsigned long long>(totals["tx_committed"].as_u64()),
              pct(totals["tx_committed"].as_u64()));
  expect_line("  `- aborted    %12llu  (%5.1f%%)\n",
              static_cast<unsigned long long>(aborted), pct(aborted));
  std::vector<std::pair<std::string, std::uint64_t>> causes;
  for (const auto& [name, n] : totals["aborts_by_cause"].members()) {
    if (n.as_u64() == 0) continue;
    causes.emplace_back(name, n.as_u64());
  }
  for (std::size_t i = 0; i < causes.size(); ++i) {
    expect_line("     %s %-14s %12llu  (%5.1f%% of aborts)\n",
                i + 1 == causes.size() ? "`-" : "|-", causes[i].first.c_str(),
                static_cast<unsigned long long>(causes[i].second),
                100.0 * static_cast<double>(causes[i].second) /
                    static_cast<double>(aborted));
  }
  expect_line("  abort rate: %.2f%% of started transactions\n",
              totals["abort_rate_pct"].as_double());
  expect_line("  wasted cycles: %.2f%% of transactional cycles\n",
              totals["wasted_cycle_pct"].as_double());
}

TEST(Telemetry, HtmlPolylinesAreClosedForLongSeries) {
  // A short sampling interval gives every interval series enough points
  // that its <polyline> points attribute runs past 511 bytes; each element
  // must still be closed.
  TelemetryOptions opt;
  opt.sample_interval = 64;
  Telemetry tel(opt);
  contended_run(&tel, 4, 60, "series");
  std::string err;
  const JsonValue doc = JsonParser::parse(tel.json("telemetry_test"), &err);
  ASSERT_TRUE(err.empty()) << err;
  const std::string html = render_html(doc);
  std::size_t polylines = 0, longest = 0;
  for (std::size_t at = html.find("<polyline"); at != std::string::npos;
       at = html.find("<polyline", at + 1)) {
    polylines++;
    const std::size_t points = html.find("points=\"", at) + 8;
    const std::size_t end = html.find('"', points);
    longest = std::max(longest, end - points);
    EXPECT_EQ(html.compare(end, 3, "\"/>"), 0)
        << "unterminated <polyline> at byte " << at;
  }
  EXPECT_GT(polylines, 0u);
  EXPECT_GT(longest, 511u);
}

}  // namespace
}  // namespace tsxhpc::sim
