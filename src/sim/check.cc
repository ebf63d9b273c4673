#include "sim/check.h"

#include <cctype>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>

#include "sim/sweep.h"
#include "sim/telemetry.h"

namespace tsxhpc::sim {

namespace {

using u64 = std::uint64_t;

/// `lhs == rhs`, or `lhs <= rhs` when `at_most`. A side is a number or a
/// sum of " + "-separated dotted paths; a path ending at an array or object
/// reads as the sum of its numbers. On an array, a path segment selects the
/// elements whose "level" (else "kind") is that key ("llc"), starts with it
/// ("llc*"), or all of them ("*"); "#" counts them.
struct Rule {
  std::string_view lhs, rhs;
  bool at_most = false;
};

/// Adds the numbers at `path` below `v` to `sum`; false if the path leads
/// anywhere else, or an exact key selects no array element.
bool add(const JsonValue& v, std::string_view path, u64& sum) {
  if (path.empty()) {
    bool ok = v.type() == JsonValue::Type::kNumber || v.is_array() ||
              v.is_object();
    sum += v.as_u64();
    for (const JsonValue& x : v.items()) ok &= add(x, "", sum);
    for (const auto& [key, x] : v.members()) ok &= add(x, "", sum);
    return ok;
  }
  const std::size_t dot = path.find('.');
  const std::string_view key = path.substr(0, dot);
  const std::string_view rest = dot == path.npos ? "" : path.substr(dot + 1);
  if (!v.is_array()) return add(v[key], rest, sum);
  if (key == "#") return rest.empty() && (sum += v.size(), true);
  const bool glob = key.ends_with('*');
  bool found = false, ok = true;
  for (const JsonValue& x : v.items()) {
    const std::string& name = x[x.has("level") ? "level" : "kind"].as_string();
    if (glob ? name.starts_with(key.substr(0, key.size() - 1)) : name == key) {
      found = true;
      ok &= add(x, rest, sum);
    }
  }
  return ok && (found || glob);
}

/// Checks one run. A key a rule reads that is missing or not a number is a
/// violation (not a 0) and the run's last: later ones would only echo it.
struct RunCheck {
  std::vector<std::string>& out;
  const std::string where;
  bool incomplete = false;

  void run(const JsonValue& r) {
    const u64 slice_lat = value(r, "topology.lat_hop_slice", "");
    const u64 socket_lat = value(r, "topology.lat_hop_socket", "");
    const auto hops = [&](const JsonValue& counters, const std::string& at) {
      compare(at, "hop_cycles", value(counters, "hop_cycles", at),
              "slice_hops * lat_hop_slice + socket_hops * lat_hop_socket",
              value(counters, "slice_hops", at) * slice_lat +
                  value(counters, "socket_hops", at) * socket_lat);
    };
    hops(r["totals"], "totals");
    for (std::size_t i = 0; i < value(r, "threads.#", ""); ++i) {
      const std::string at = "threads[" + std::to_string(i) + "]";
      hops(r["threads"].at(i), at);
      check(r["threads"].at(i), at,
            {{"cycles.work + cycles.tx_committed + cycles.tx_wasted + "
              "cycles.lock_wait + cycles.fallback + cycles.mem_stall",
              "cycles.total"},
             {"cycles.total", "end_cycle"},
             {"mem_stall_levels", "cycles.mem_stall"},
             {"mem_accesses", "l1_hits + l1_misses"},
             {"l1_misses", "xfers_in + llc_hits + llc_misses"},
             {"backoff_cycles", "cycles.tx_wasted", true}});
    }
    check(r, "",
          {{"totals.backoff_cycles", "threads.*.backoff_cycles"},
           {"totals.tx_committed + totals.tx_aborted", "totals.tx_started"},
           {"totals.aborts_by_cause", "totals.tx_aborted"},
           {"cache_levels.l1.served", "totals.l1_hits"},
           {"cache_levels.xfer.served", "totals.xfers_in"},
           {"cache_levels.llc.served", "totals.llc_hits"},
           {"cache_levels.dram.served", "totals.llc_misses"},
           {"topology.slice_stats.*.hits", "totals.llc_hits"},
           {"topology.slice_stats.*.misses", "totals.llc_misses"},
           {"topology.slice_stats.*.evictions", "totals.llc_evictions"},
           {"topology.slice_stats.*.xfers", "totals.xfers_in"},
           {"topology.socket_stats.*.accesses", "totals.mem_accesses"},
           {"topology.socket_stats.*.dram_local + "
            "topology.socket_stats.*.dram_remote",
            "totals.llc_misses"},
           {"topology.slice_stats.#", "topology.slices"},
           {"topology.socket_stats.#", "topology.sockets"}});
    if (value(r, "samples.count", "") > 0) {
      check(r, "", {{"samples.llc_misses", "totals.llc_misses"},
                    {"samples.mem_stall", "totals.cycles.mem_stall"}});
    }
    // One policy decision per abort, one fallback or skip per acquisition.
    for (std::size_t i = 0; i < value(r, "locks.#", ""); ++i) {
      const JsonValue& lock = r["locks"].at(i);
      const std::string& kind = lock["kind"].as_string();
      if (kind != "elided" && kind != "lockset" && kind != "monitor") continue;
      check(lock, "locks[" + lock["site"].as_string() + "]",
            {{"policy.retries + policy.backoffs + policy.lock_waits + "
              "policy.fallbacks",
              "tx_aborts"},
             {"policy.fallbacks + policy.skips", "fallback_acquires"}});
    }
    const std::string& scheme = r["cc"]["scheme"].as_string();
    if (r.has("cc")) {
      check(r, "", {{"cc.starts", "cc.commits + cc.aborts"},
                    {"cc.aborts_by_class", "cc.aborts"}});
    }
    // sgl regions are critical sections; tsx regions elide the global lock.
    if (scheme == "sgl" || scheme == "tsx") check(r, "", {{"cc.aborts", "0"}});
    if (scheme == "tsx") {
      check(r, "", {{"cc.commits", "locks.elided.elided_commits + "
                                   "locks.elided.fallback_acquires"}});
    }
    if (scheme == "tl2" || scheme.starts_with("tictoc") || scheme == "mvcc") {
      check(r, "", {{"totals.tx_started", "0"}});
    }
    if (scheme == "mvcc") {
      check(r, "", {{"cc.aborts_by_class.read_validation", "0"},
                    {"cc.snapshot_commits", "cc.commits", true},
                    {"cc.gc_reclaims", "cc.versions_created", true}});
    }
    if (r.has("set_stats")) set_stats(r);
  }

  /// Write capacity dooms land in L1 sets, read dooms and their lottery
  /// draws in LLC sets. A sliced LLC has one "llc.s<i>" table per slice.
  void set_stats(const JsonValue& r) {
    check(r, "",
          {{"set_stats.levels.l1*.hits", "totals.l1_hits"},
           {"set_stats.levels.l1*.misses", "totals.l1_misses"},
           {"set_stats.levels.llc*.hits", "totals.llc_hits"},
           {"set_stats.levels.llc*.misses", "totals.llc_misses"},
           {"set_stats.levels.llc*.evictions", "totals.llc_evictions"},
           {"set_stats.levels.llc*.xfers", "totals.xfers_in"},
           {"set_stats.levels.*.capacity_write_dooms",
            "totals.aborts_by_cause.capacity"},
           {"set_stats.levels.*.capacity_read_dooms",
            "totals.aborts_by_cause.capacity-read"},
           {"set_stats.levels.*.capacity_read_dooms",
            "set_stats.levels.llc*.doom_draws", true}});
    for (const JsonValue& level : r["set_stats"]["levels"].items()) {
      const std::string& name = level["level"].as_string();
      if (!name.starts_with("llc.s")) continue;
      const std::string at = "set_stats.levels[" + name + "]";
      const std::string slice = "topology.slice_stats[" + name.substr(5) + "]";
      const JsonValue& counters = r["topology"]["slice_stats"].at(
          std::strtoull(name.c_str() + 5, nullptr, 10));
      for (const char* column : {"hits", "misses", "evictions", "xfers"}) {
        compare(at, column, value(level, column, at), slice + "." + column,
                value(counters, column, slice));
      }
    }
    for (std::size_t i = 0; i < value(r, "set_stats.objects.#", ""); ++i) {
      const JsonValue& obj = r["set_stats"]["objects"].at(i);
      check(obj, "set_stats.objects[" + obj["name"].as_string() + "]",
            {{"1", "lines", true},
             {"1", "l1_sets_covered", true},
             {"1", "llc_sets_covered", true}});
    }
  }

  void check(const JsonValue& obj, const std::string& at,
             std::initializer_list<Rule> rules) {
    for (const Rule& rule : rules) {
      const u64 x = value(obj, rule.lhs, at), y = value(obj, rule.rhs, at);
      compare(at, rule.lhs, x, rule.rhs, y, rule.at_most);
    }
  }

  /// Records "a (x) != b (y)", or "a (x) > b (y)" when `at_most`; a number
  /// side shows once.
  void compare(const std::string& at, std::string_view a, u64 x,
               std::string_view b, u64 y, bool at_most = false) {
    if (at_most ? x <= y : x == y) return;
    const auto side = [](std::string_view expr, u64 v) {
      const std::string n = std::to_string(v);
      return expr == n ? n : std::string(expr) + " (" + n + ")";
    };
    fail(at, side(a, x) + (at_most ? " > " : " != ") + side(b, y));
  }

  /// The value of a rule side, read below `obj`.
  u64 value(const JsonValue& obj, std::string_view expr,
            const std::string& at) {
    if (std::isdigit(static_cast<unsigned char>(expr[0]))) {
      return std::stoull(std::string(expr));
    }
    u64 sum = 0;
    for (std::size_t pos = 0, plus = 0; plus != expr.npos; pos = plus + 3) {
      plus = expr.find(" + ", pos);
      const std::string path(expr.substr(pos, plus - pos));
      if (!add(obj, path, sum)) {
        fail(at, "'" + path + "' is missing or not a number", true);
      }
    }
    return sum;
  }

  /// Records "<where> <at>: <what>"; nothing after a `last` one.
  void fail(const std::string& at, const std::string& what, bool last = false) {
    if (!incomplete) {
      out.push_back(where + (at.empty() ? "" : " " + at) + ": " + what);
    }
    incomplete |= last;
  }
};

}  // namespace

std::vector<std::string> check_artifact(const JsonValue& doc) {
  std::vector<std::string> out;
  const std::string& schema = doc["schema"].as_string();
  if (schema == kSweepSchema) {
    for (const JsonValue& cell : doc["cells"].items()) {
      for (const std::string& v : check_artifact(cell["telemetry"])) {
        out.push_back("cells[" + cell["cell"].as_string() + "] " + v);
      }
    }
  } else if (schema != kTelemetrySchema) {
    out.push_back("schema '" + schema + "' is not " + kTelemetrySchema);
  } else {
    for (const JsonValue& run : doc["runs"].items()) {
      RunCheck{out, "runs[" + run["label"].as_string() + "]"}.run(run);
    }
  }
  return out;
}

}  // namespace tsxhpc::sim
