#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <string>

#include "workload.h"

namespace perfbench {

struct LoadOptions {
  WorkloadSpec spec;
  uint64_t seed = 0;
  uint16_t port = 0;
  /// Unmeasured lead-in (its ops are still checked and replayed).
  double warmup_s = 1.0;
  /// Measured window.
  double seconds = 10.0;
  /// Point mutations in a write-only phase after the window, for
  /// workloads without writes, sent back to back by one client as
  /// insert/delete pairs. A fixed count, so the delta state it leaves
  /// (and the memory it takes) is the same for every run of a seed.
  uint32_t tail_ops = 0;
  /// Directory holding points.bin / weights.bin (the oracle's inputs).
  std::string data_dir;
  /// Result JSON.
  std::string out_path;
  /// Traced run: record a span of every measured answer of the window to
  /// `spans_path` and poll STATS for shard queue depths.
  bool trace = false;
  std::string spans_path;
};

/// Runs the closed-loop clients, checks the answers and writes the result
/// JSON. Returns the process exit code (0 also when answers were wrong —
/// the result records it; nonzero when the run could not be made).
int RunLoad(const LoadOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
