#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct LayerOptions {
  WorkloadSpec spec;
  uint64_t seed = 0;
  /// Directory holding points.bin / weights.bin; temporary WAL files go in
  /// a subdirectory of it.
  std::string data_dir;
  /// Per client: index in its stream of the first op the served run
  /// measured; the replayed stretch starts there (0 when empty).
  std::vector<uint64_t> from;
  /// Directly measured per-layer values (JSON object).
  std::string out_path;
  /// Spans around every replayed call (JSON lines).
  std::string spans_path;
};

/// Replays a measured stretch of the workload's seeded stream through the
/// layers in-process — core/simd kernels, GirIndex batch engine,
/// DynamicGirIndex, and ShardedGirIndex without and with a ShardedWal —
/// recording a span around each call. Returns the process exit code.
int RunLayers(const LayerOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
