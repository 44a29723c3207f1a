#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced run. The benchmark wraps each
/// call it makes into a layer of the program in a span named
/// `<layer>.<stage>` (service, rulelang, engine, rules, analysis,
/// explorer), keeps the spans in memory and aggregates them at the end.
/// A disabled log records nothing and reads no clock, so the same replay
/// code runs with and without tracing and the difference is the overhead.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;       // index of the enclosing span, or -1
    int64_t request = -1;  // spans of one request share this id
  };
  struct Totals {
    int64_t count = 0;
    double total_us = 0;
    double self_us = 0;  // total minus the time direct children cover
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int Begin(const char* name, int parent, int64_t request) {
    if (!enabled_) return -1;
    return Add({name, Now(), 0, parent, request});
  }
  /// Records a span as given; returns its index.
  int Add(const Span& span) {
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = Now();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: count, total and self time.
  std::map<std::string, Totals> Aggregate() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Totals& t = out[s.name];
      ++t.count;
      t.total_us += static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
      t.self_us +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1000.0;
    }
    return out;
  }

  /// For the spans named `root_name`: the share of their total time that
  /// each name of direct child covers, and under "(self)" the share no
  /// child covers. Empty when there is no such span.
  std::map<std::string, double> ChildShares(
      const std::string& root_name) const {
    std::map<std::string, double> by_child;
    double root_total = 0;
    double children = 0;
    for (const Span& s : spans_) {
      const double ns = static_cast<double>(s.end_ns - s.start_ns);
      if (s.parent < 0) {
        if (root_name == s.name) root_total += ns;
        continue;
      }
      if (root_name != spans_[static_cast<size_t>(s.parent)].name) continue;
      by_child[s.name] += ns;
      children += ns;
    }
    std::map<std::string, double> shares;
    if (root_total <= 0) return shares;
    for (const auto& [name, ns] : by_child) shares[name] = ns / root_total;
    shares["(self)"] = (root_total - children) / root_total;
    return shares;
  }

  /// Mean duration in microseconds of the spans named `name` (0 if none).
  double MeanUs(const std::map<std::string, Totals>& totals,
                const std::string& name) const {
    auto it = totals.find(name);
    if (it == totals.end() || it->second.count == 0) return 0;
    return it->second.total_us / static_cast<double>(it->second.count);
  }

  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent = -1,
             int64_t request = -1)
      : log_(log), id_(log->Begin(name, parent, request)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_
