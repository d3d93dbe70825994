#ifndef FRAGDB_PERFBENCH_TRACE_H_
#define FRAGDB_PERFBENCH_TRACE_H_

// The traced run's instruments, all in the benchmark's own code: a span
// log kept in memory and written out when the run ends, and a heap-bytes
// counter (a replaced global operator new) that only counts once enabled,
// so untraced runs pay one relaxed load per allocation.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t cell = 0;    // every span of one cell shares its cell id
  std::string name;
  double start_s = 0;  // since the log's origin
  double end_s = 0;
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  /// Opens a span; returns its id (ids start at 1).
  uint64_t Begin(const std::string& name, uint64_t parent, uint64_t cell);
  /// Closes an open span; returns its duration in seconds.
  double End(uint64_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per span, one per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Live-heap accounting through the replaced global operator new/delete.
namespace heap {
/// Starts counting allocations from now on (never stops).
void Enable();
/// Bytes allocated minus bytes freed since Enable().
int64_t Live();
/// Restarts the high-water mark at the current live count.
void ResetPeak();
/// Highest Live() seen since the last ResetPeak().
int64_t Peak();
}  // namespace heap

}  // namespace perfbench

#endif  // FRAGDB_PERFBENCH_TRACE_H_
