// The artifact invariant checker (sim/check.h) against one small real
// artifact that carries every block the rules read: an elided-lock run and
// tmlib regions under tsx and mvcc, with per-set telemetry, on a
// 2-socket/4-slice machine. JsonValue is immutable, so each test edits one
// counter in the serialized text and requires exactly one violation that
// names the run, the thread, site or level, and both numbers.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "sim/check.h"
#include "sim/json_parse.h"
#include "sim/machine.h"
#include "sim/shared.h"
#include "sim/sweep.h"
#include "sim/telemetry.h"
#include "sync/elision.h"
#include "tmlib/tm.h"

namespace tsxhpc::sim {
namespace {

using u64 = std::uint64_t;

std::string build_artifact() {
  Telemetry tel;
  MachineConfig cfg;
  cfg.telemetry = &tel;
  cfg.set_stats = true;
  cfg.num_cores = 8;
  cfg.smt_per_core = 1;
  cfg.topology.num_sockets = 2;
  cfg.topology.llc_slices = 4;
  RunSpec spec;
  spec.threads = 4;
  {
    Machine m(cfg);
    sync::ElidedLock lock(m);
    auto cells = SharedArray<u64>::alloc(m, {.name = "cells"}, 64);
    spec.label = "elided";
    spec.body = [&](Context& c) {
      for (int i = 0; i < 40; ++i) {
        lock.critical(c, [&] {
          auto cell = cells.at((c.tid() * 5 + i) % 64);
          cell.store(c, cell.load(c) + 1);
          c.compute(60);
        });
      }
    };
    m.run(spec);
  }
  for (tmlib::Backend scheme : {tmlib::Backend::kTsx, tmlib::Backend::kMvcc}) {
    Machine m(cfg);
    tmlib::TmRuntime rt(m, scheme);
    auto cells = SharedArray<u64>::alloc(m, {.name = "cells"}, 64);
    spec.label = tmlib::to_string(scheme);
    spec.body = [&](Context& c) {
      tmlib::TmThread t(rt, c);
      for (int i = 0; i < 40; ++i) {
        t.atomic([&](tmlib::TmAccess& tm) {
          auto cell = cells.at((c.tid() * 5 + i) % 64);
          tm.write(cell, tm.read(cell) + 1);
        });
      }
    };
    m.run(spec);
  }
  return tel.json("check_test");
}

const std::string& artifact() {
  static const std::string text = build_artifact();
  return text;
}

JsonValue parse(const std::string& text) {
  std::string err;
  JsonValue doc = JsonParser::parse(text, &err);
  EXPECT_EQ(err, "");
  return doc;
}

const JsonValue& run(const JsonValue& doc, std::string_view label) {
  for (const JsonValue& r : doc["runs"].items()) {
    if (r["label"].as_string() == label) return r;
  }
  ADD_FAILURE() << "no run " << label;
  return doc["runs"].at(0);
}

/// The number that follows the last element of `path` in the artifact
/// text; each element is searched for after the previous one.
struct Spot {
  std::size_t begin = 0, end = 0;
  u64 value = 0;
};

Spot find(std::initializer_list<std::string_view> path) {
  const std::string& text = artifact();
  Spot s;
  for (std::string_view p : path) {
    s.begin = text.find(p, s.begin);
    if (s.begin == std::string::npos) {
      ADD_FAILURE() << "not in the artifact: " << p;
      return {};
    }
    s.begin += p.size();
  }
  s.end = s.begin;
  while (s.end < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[s.end]))) {
    s.end++;
  }
  s.value = std::stoull(text.substr(s.begin, s.end - s.begin));
  return s;
}

/// The artifact text with the number at `s` replaced by `v`.
std::string with(const Spot& s, u64 v) {
  return std::string(artifact()).replace(s.begin, s.end - s.begin,
                                         std::to_string(v));
}

void expect_one(const std::string& text, const std::string& expected) {
  const std::vector<std::string> got = check_artifact(parse(text));
  ASSERT_EQ(got.size(), 1u) << ::testing::PrintToString(got);
  EXPECT_EQ(got[0], expected);
}

std::string str(u64 v) { return std::to_string(v); }

/// The checker's message for a violated `a == b`.
std::string ne(const std::string& a, u64 x, const std::string& b, u64 y) {
  return a + " (" + str(x) + ") != " + b + " (" + str(y) + ")";
}

TEST(CheckArtifact, RealArtifactHoldsEveryRule) {
  const JsonValue doc = parse(artifact());
  EXPECT_EQ(check_artifact(doc), std::vector<std::string>{});
  // Every block a rule reads is present and non-trivial.
  for (const char* label : {"elided", "tsx", "mvcc"}) {
    const JsonValue& r = run(doc, label);
    EXPECT_EQ(r["topology"]["slice_stats"].size(), 4u) << label;
    EXPECT_EQ(r["topology"]["socket_stats"].size(), 2u) << label;
    EXPECT_GT(r["set_stats"]["objects"].size(), 0u) << label;
    EXPECT_GT(r["totals"]["hop_cycles"].as_u64(), 0u) << label;
  }
  EXPECT_FALSE(run(doc, "elided").has("cc"));
  EXPECT_GT(run(doc, "elided")["samples"]["count"].as_u64(), 0u);
  EXPECT_GT(run(doc, "elided")["locks"].at(0)["tx_aborts"].as_u64(), 0u);
  EXPECT_GT(run(doc, "tsx")["cc"]["commits"].as_u64(), 0u);
  EXPECT_GT(run(doc, "mvcc")["cc"]["versions_created"].as_u64(), 0u);
}

TEST(CheckArtifact, PerThreadCycleBucketsMustReachEndCycle) {
  const Spot s = find({"\"label\":\"elided\"", "\"tid\":1,", "\"end_cycle\":"});
  expect_one(with(s, s.value + 1),
             "runs[elided] threads[1]: " +
                 ne("cycles.total", s.value, "end_cycle", s.value + 1));
}

TEST(CheckArtifact, RunTotalsMustCloseTheAbortTree) {
  const Spot s = find({"\"label\":\"elided\"", "\"tx_started\":"});
  expect_one(with(s, s.value + 1),
             "runs[elided]: " + ne("totals.tx_committed + totals.tx_aborted",
                                   s.value, "totals.tx_started", s.value + 1));
}

TEST(CheckArtifact, LockSiteDecisionsMustMatchAborts) {
  const std::string site =
      run(parse(artifact()), "elided")["locks"].at(0)["site"].as_string();
  const Spot s =
      find({"\"label\":\"elided\"", "\"locks\":[", "\"tx_aborts\":"});
  expect_one(with(s, s.value + 1),
             "runs[elided] locks[" + site + "]: " +
                 ne("policy.retries + policy.backoffs + policy.lock_waits + "
                    "policy.fallbacks",
                    s.value, "tx_aborts", s.value + 1));
}

TEST(CheckArtifact, SampleColumnsMustSumToTheRunTotals) {
  const u64 total =
      run(parse(artifact()), "elided")["totals"]["llc_misses"].as_u64();
  const Spot s =
      find({"\"label\":\"elided\"", "\"samples\":{", "\"llc_misses\":["});
  expect_one(with(s, s.value + 1),
             "runs[elided]: " + ne("samples.llc_misses", total + 1,
                                   "totals.llc_misses", total));
}

TEST(CheckArtifact, CcBlockMustReconcile) {
  const Spot starts = find({"\"label\":\"mvcc\"", "\"cc\":{", "\"starts\":"});
  expect_one(with(starts, starts.value + 1),
             "runs[mvcc]: " + ne("cc.starts", starts.value + 1,
                                 "cc.commits + cc.aborts", starts.value));
  const Spot created =
      find({"\"label\":\"mvcc\"", "\"cc\":{", "\"versions_created\":"});
  const Spot reclaims =
      find({"\"label\":\"mvcc\"", "\"cc\":{", "\"gc_reclaims\":"});
  expect_one(with(reclaims, created.value + 1),
             "runs[mvcc]: cc.gc_reclaims (" + str(created.value + 1) +
                 ") > cc.versions_created (" + str(created.value) + ")");
}

TEST(CheckArtifact, SetStatsMustDecomposeTheTotals) {
  const Spot dooms = find({"\"label\":\"tsx\"", "\"set_stats\":{",
                           "\"capacity_write_dooms\":["});
  const u64 capacity =
      run(parse(artifact()), "tsx")["totals"]["aborts_by_cause"]["capacity"]
          .as_u64();
  expect_one(with(dooms, dooms.value + 1),
             "runs[tsx]: " + ne("set_stats.levels.*.capacity_write_dooms",
                                capacity + 1,
                                "totals.aborts_by_cause.capacity", capacity));
  const std::string object = run(parse(artifact()), "tsx")["set_stats"]
                                 ["objects"].at(0)["name"].as_string();
  const Spot covered = find({"\"label\":\"tsx\"", "\"set_stats\":{",
                             "\"objects\":[", "\"l1_sets_covered\":"});
  expect_one(with(covered, 0), "runs[tsx] set_stats.objects[" + object +
                                   "]: 1 > l1_sets_covered (0)");
}

TEST(CheckArtifact, TopologyMustDecomposeTheTotals) {
  const Spot accesses =
      find({"\"label\":\"elided\"", "\"socket_stats\":[", "\"accesses\":"});
  const u64 total =
      run(parse(artifact()), "elided")["totals"]["mem_accesses"].as_u64();
  expect_one(with(accesses, accesses.value + 1),
             "runs[elided]: " + ne("topology.socket_stats.*.accesses",
                                   total + 1, "totals.mem_accesses", total));
  const Spot hops =
      find({"\"label\":\"elided\"", "\"tid\":0,", "\"hop_cycles\":"});
  expect_one(with(hops, hops.value + 1),
             "runs[elided] threads[0]: " +
                 ne("hop_cycles", hops.value + 1,
                    "slice_hops * lat_hop_slice + socket_hops * "
                    "lat_hop_socket",
                    hops.value));
}

TEST(CheckArtifact, AMissingCounterIsTheOneViolation) {
  // JsonValue reads a missing key as 0; the checker must not.
  const std::string key = "\"mem_accesses\":";
  const Spot s = find({"\"label\":\"elided\"", "\"tid\":1,", key});
  std::string text = artifact();
  text.erase(s.begin - key.size(), s.end - s.begin + key.size() + 1);
  expect_one(text,
             "runs[elided] threads[1]: 'mem_accesses' is missing or not a "
             "number");
}

TEST(CheckArtifact, AnotherSchemaIsOneViolation) {
  std::string text = artifact();
  const std::string v7 = "\"schema\":\"tsxhpc-telemetry-v7\"";
  text.replace(text.find(v7), v7.size(), "\"schema\":\"tsxhpc-telemetry-v6\"");
  expect_one(text, "schema 'tsxhpc-telemetry-v6' is not tsxhpc-telemetry-v7");
}

TEST(CheckArtifact, SweepCellViolationsNameTheCell) {
  SweepSpec spec;
  spec.name = "check_test";
  spec.bench = "check_test";
  spec.axes = {{"variant", "--variant", {"clean", "edited"}}};
  const Spot s = find({"\"label\":\"mvcc\"", "\"tid\":3,", "\"end_cycle\":"});
  const std::string grid = merge_sweep(spec, "quick", {}, expand_cells(spec),
                                       {artifact(), with(s, s.value + 1)});
  expect_one(grid, "cells[variant=edited] runs[mvcc] threads[3]: " +
                       ne("cycles.total", s.value, "end_cycle", s.value + 1));
}

}  // namespace
}  // namespace tsxhpc::sim
