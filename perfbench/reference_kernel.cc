#include "reference_kernel.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

namespace perfbench {

namespace {

volatile uint64_t g_sink = 0;

double KernelOnceMs() {
  const auto t0 = std::chrono::steady_clock::now();
  std::map<int, std::vector<int64_t>> tree;
  for (int i = 0; i < 3000; ++i) {
    tree.emplace(i * 7919 % 10007, std::vector<int64_t>{i, i + 1});
  }
  uint64_t h = 0;
  for (int round = 0; round < 4; ++round) {
    std::map<int, std::vector<int64_t>> copy = tree;
    for (const auto& [key, value] : copy) {
      h = h * 31 + static_cast<uint64_t>(key + value[0]);
    }
  }
  g_sink = h;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

double ReferenceKernelMs() {
  double runs[3] = {KernelOnceMs(), KernelOnceMs(), KernelOnceMs()};
  std::sort(runs, runs + 3);
  return runs[1];
}

}  // namespace perfbench
