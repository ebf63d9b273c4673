// Host-speed calibration. The benchmark shares its host with other work, and
// the host's speed drifts by tens of percent over seconds to minutes. A fixed
// kernel that shares no code with the simulator is timed between cells; the
// ratio of its time to its reference time is the host's slowdown at that
// moment, and the end-to-end times are divided by it. A change to the
// simulator cannot move the kernel, so it moves the normalised figures just
// as it moves the raw ones.
//
// The kernel mixes a dependent table walk with hash-map, sort and tree
// churn, because the simulator's own mix of pointer chasing, hashing and
// branchy container code slows with host load more than a tight loop does.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace perfbench {

class HostCalibration {
 public:
  /// Kernel time on the reference host, in ms: a 4-vCPU Intel Xeon VM
  /// with the CMake RelWithDebInfo flags. Normalised times read as times on
  /// that host at this kernel speed.
  static constexpr double kReferenceMs = 0.35;

  HostCalibration() : table_(kTable), sorted_(kSort) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (auto& e : table_) e = x = mix(x);
    // Let the hash map and the tree reach their steady-state sizes.
    for (int i = 0; i < 20; ++i) sample_ms();
  }

  HostCalibration(const HostCalibration&) = delete;
  HostCalibration& operator=(const HostCalibration&) = delete;

  /// Host ms of one kernel run.
  double sample_ms() {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = sink_ | 1;
    for (int i = 0; i < kWalk; ++i) {
      x = mix(x ^ table_[x & (kTable - 1)]);
      table_[(x >> 23) & (kTable - 1)] += x;
    }
    for (int i = 0; i < kHashOps; ++i) {
      x = mix(x + i);
      const auto it = hash_.find(x & 16383);
      if (it == hash_.end()) {
        hash_.emplace(x & 16383, x);
      } else {
        x ^= it->second;
        if (x & 1) hash_.erase(it);
      }
    }
    for (auto& e : sorted_) e = x = mix(x + 1);
    std::sort(sorted_.begin(), sorted_.end());
    for (int i = 0; i < kTreeOps; ++i) {
      x = mix(x + i);
      const auto it = tree_.lower_bound(x & 8191);
      if (it != tree_.end() && (x & 3)) {
        x ^= it->second;
        tree_.erase(it);
      } else {
        tree_[x & 8191] = x;
      }
    }
    sink_ ^= x;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  }

  /// Host slowdown against the reference: the median of `samples` runs.
  double slowdown(int samples) {
    std::vector<double> v;
    for (int i = 0; i < samples; ++i) v.push_back(sample_ms());
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    const double mid = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    return mid / kReferenceMs;
  }

 private:
  static constexpr std::size_t kTable = 1 << 15;  // 256 KiB of uint64
  static constexpr int kWalk = 8000;
  static constexpr int kHashOps = 1400;
  static constexpr std::size_t kSort = 1700;
  static constexpr int kTreeOps = 2000;

  static std::uint64_t mix(std::uint64_t z) {
    z ^= z >> 31;
    z *= 0xBF58476D1CE4E5B9ULL;
    z ^= z >> 29;
    return z;
  }

  std::vector<std::uint64_t> table_;
  std::vector<std::uint64_t> sorted_;
  std::unordered_map<std::uint64_t, std::uint64_t> hash_;
  std::map<std::uint64_t, std::uint64_t> tree_;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
