// Domain example: run any STAMP workload under any TM backend from the
// command line and print its timing and abort statistics — a miniature of
// the Figure 2 / Table 1 harness for interactive exploration.
//
//   $ ./build/examples/stamp_runner vacation tsx 8
//   $ ./build/examples/stamp_runner labyrinth tl2 4
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/json_parse.h"
#include "sim/report.h"
#include "sim/telemetry.h"
#include "stamp/stamp.h"

using namespace tsxhpc;

int main(int argc, char** argv) {
  const char* name = argc > 1 ? argv[1] : "vacation";
  const char* backend_name = argc > 2 ? argv[2] : "tsx";
  const int threads = argc > 3 ? std::atoi(argv[3]) : 4;

  tmlib::Backend backend;
  if (!tmlib::backend_from_name(backend_name, &backend)) {
    std::fprintf(stderr, "unknown backend '%s'; available:", backend_name);
    for (tmlib::Backend b : tmlib::all_backends()) {
      std::fprintf(stderr, " %s", tmlib::to_string(b));
    }
    std::fprintf(stderr, "\n");
    return 1;
  }

  const stamp::Workload* workload = nullptr;
  for (const auto& w : stamp::all_workloads()) {
    if (w.name == name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; available:", name);
    for (const auto& w : stamp::all_workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }

  sim::Telemetry telemetry;
  stamp::Config cfg;
  cfg.backend = backend;
  cfg.threads = threads;
  cfg.machine.telemetry = &telemetry;
  const stamp::Result r = workload->fn(cfg);

  std::printf("%s / %s / %d threads\n", name, backend_name, threads);
  std::printf("  makespan      : %llu simulated cycles\n",
              static_cast<unsigned long long>(r.makespan));
  std::printf("  verification  : %s\n",
              r.checksum != 0 ? "OK" : "FAILED (invariant broken!)");
  if (tmlib::is_stm(backend)) {
    std::printf("  %s txns : %llu started, %llu aborted (%.1f%%)\n",
                backend_name, static_cast<unsigned long long>(r.cc.starts),
                static_cast<unsigned long long>(r.cc.aborts),
                r.abort_rate_pct(backend));
  } else if (backend == tmlib::Backend::kTsx) {
    const auto t = r.stats.total();
    std::printf("  hw txns       : %llu started, %llu aborted (%.1f%%)\n",
                static_cast<unsigned long long>(t.tx_started),
                static_cast<unsigned long long>(t.tx_aborts_total()),
                r.abort_rate_pct(backend));
  }

  // The perf-style counter report, rendered from the serialized artifact —
  // the same path tsx_report and every bench's --report take.
  std::string err;
  const sim::JsonValue doc =
      sim::JsonParser::parse(telemetry.json("stamp_runner"), &err);
  if (!err.empty()) {
    std::fprintf(stderr, "stamp_runner: telemetry parse error: %s\n",
                 err.c_str());
    return 1;
  }
  std::printf("\n%s", sim::render_report(doc).c_str());
  return r.checksum != 0 ? 0 : 2;
}
