// Keeps the benchmark on the fastest CPU it may use. On a shared host, how
// fast a core runs the simulator depends on what its sibling hyperthread
// runs: the same cell was measured at 57 ms on one CPU and 76 ms on
// another, with the modes moving between CPUs every few seconds. The
// calibration kernel barely sees this, so instead the picker times a probe
// cell on every allowed CPU, pins the process to the fastest, and probes
// again every few seconds.
#pragma once

#include <sched.h>

#include <chrono>

#include "cells.h"

namespace perfbench {

class CpuPicker {
 public:
  CpuPicker(const Cell& probe, bool telemetry)
      : probe_(probe), telemetry_(telemetry) {
    CPU_ZERO(&allowed_);
    sched_getaffinity(0, sizeof allowed_, &allowed_);
  }

  CpuPicker(const CpuPicker&) = delete;
  CpuPicker& operator=(const CpuPicker&) = delete;

  /// Probe again if the last probe is older than the interval; returns
  /// whether it did.
  bool maybe_repick() {
    if (picks_ > 0 && Clock::now() - last_ < kInterval) return false;
    repick();
    return true;
  }

  /// Time the probe cell on every allowed CPU and pin to the fastest. If
  /// no CPU can be pinned, the original affinity stays.
  void repick() {
    int best = -1;
    double best_ms = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed_) || !pin(cpu)) continue;
      const auto t0 = Clock::now();
      run_cell(probe_, telemetry_);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      if (best < 0 || ms < best_ms) {
        best = cpu;
        best_ms = ms;
      }
    }
    if (best < 0 || !pin(best)) {
      sched_setaffinity(0, sizeof allowed_, &allowed_);
      best = -1;
    }
    cpu_ = best;
    last_ = Clock::now();
    picks_++;
  }

  int cpu() const { return cpu_; }  // -1: not pinned
  int picks() const { return picks_; }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::chrono::seconds kInterval{2};

  static bool pin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
  }

  const Cell& probe_;
  bool telemetry_;
  cpu_set_t allowed_;
  int cpu_ = -1;
  int picks_ = 0;
  Clock::time_point last_;
};

}  // namespace perfbench
