#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// The reference side of the correctness gate.
//
// The servers under test run ScanMode::kTauIndex: the τ threshold pass,
// the dirty-state engine of DynamicGirIndex, and the blocked engine with
// the SIMD bound kernels behind both. A replica built from the same code
// would repeat any fault of those paths. Reference instead keeps the live
// sets as plain rows and answers from them with code the served
// deployment never runs: reverse top-k with a GirIndex rebuilt in
// ScanMode::kWeightAtATime (the paper's loop nest: GInTopK with scalar
// bounds and exact inner products), reverse k-ranks with the exhaustive
// NaiveReverseKRanks (every rank counted in full, about 0.1 s a query —
// a third less than the loop nest spends at k = 10).

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/dataset.h"
#include "core/status.h"
#include "core/thread_pool.h"
#include "grid/gir_queries.h"
#include "workload.h"

namespace perfbench {

class Reference {
 public:
  Reference(const gir::Dataset& points, const gir::Dataset& weights,
            gir::ThreadPool& pool);

  /// Applies a mutation to the live sets with DynamicGirIndex's id rules:
  /// inserts append, a delete removes the row at that live id and shifts
  /// later ids down. InvalidArgument for a delete of an id not live.
  gir::Status Apply(const Op& op);

  /// Queues a check of a query's answer (`rtk` or `rkr`, by op.kind)
  /// against the live sets as they are now. `op` and the answer must stay
  /// alive until Finish(). Checks run in parallel batches on the pool.
  void Expect(const Op& op, const gir::ReverseTopKResult& rtk,
              const gir::ReverseKRanksResult& rkr);

  /// Runs the queued checks. Returns the ids of the ops answered wrongly.
  std::vector<uint64_t> Finish();

  /// Answers checked so far.
  uint64_t checked() const { return checked_; }

 private:
  struct Snapshot {
    gir::Dataset points{kDim};
    gir::Dataset weights{kDim};
    std::optional<gir::GirIndex> index;  // over the two sets above
  };
  struct Task {
    std::shared_ptr<const Snapshot> snap;
    const Op* op;
    const gir::ReverseTopKResult* rtk;
    const gir::ReverseKRanksResult* rkr;
  };

  void Flush();

  gir::ThreadPool& pool_;
  std::vector<double> points_;   // live points, row-major
  std::vector<double> weights_;  // live weights, row-major
  std::shared_ptr<const Snapshot> snap_;  // null after a mutation
  std::vector<Task> pending_;
  std::vector<uint64_t> wrong_;
  uint64_t checked_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
