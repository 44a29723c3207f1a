#ifndef PERFBENCH_REFERENCE_KERNEL_H_
#define PERFBENCH_REFERENCE_KERNEL_H_

#include <chrono>
#include <utility>

namespace perfbench {

/// A fixed single-threaded reference kernel: builds, copies and walks a
/// std::map of small vectors — allocation and pointer chasing, the memory
/// behaviour of the program's analyses and explorer. On the shared host,
/// neighbours' load slows this kernel and the program's single-threaded
/// work together (by up to 1.7x, in regimes lasting seconds), so the ratio
/// of the two stays steady. Returns the median of three runs, in ms.
double ReferenceKernelMs();

/// The kernel's time on the calibration host when undisturbed; normalized
/// durations are reported as if every slice had run at that speed.
constexpr double kReferenceNominalMs = 1.0;

/// Times slices of single-threaded work, each one normalized by the
/// reference kernel run on the same thread just before and just after it:
/// normalized = raw * nominal / mean(kernel before, kernel after).
class NormalizedTimer {
 public:
  NormalizedTimer() : last_kernel_ms_(ReferenceKernelMs()) {}

  /// Runs `fn`; returns its normalized duration in ms.
  template <typename F>
  double Time(F&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    std::forward<F>(fn)();
    raw_ms_ = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    const double kernel = ReferenceKernelMs();
    const double factor =
        kReferenceNominalMs / ((last_kernel_ms_ + kernel) / 2.0);
    last_kernel_ms_ = kernel;
    return raw_ms_ * factor;
  }

  /// Measures the kernel afresh, for a slice that does not directly follow
  /// the previous one.
  void Rebase() { last_kernel_ms_ = ReferenceKernelMs(); }

  /// The last slice's raw duration in ms.
  double raw_ms() const { return raw_ms_; }

 private:
  double last_kernel_ms_;
  double raw_ms_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_KERNEL_H_
