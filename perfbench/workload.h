#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The served workloads (scan, churn, cluster) as seeded,
// per-client operation streams. The same (workload, seed, client) always
// yields the same operations in the same order, so the served run, the
// oracle and the in-process layer replay all see identical inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "data/rng.h"

namespace perfbench {

// Deployment shape shared by every workload (see README.md).
inline constexpr size_t kPoints = 10000;
inline constexpr size_t kWeights = 2000;
inline constexpr size_t kDim = 8;
inline constexpr size_t kClients = 4;
inline constexpr size_t kShards = 2;
// Attribute range of the generated points (data/generators.h default).
inline constexpr double kRange = 10000.0;

struct WorkloadSpec {
  std::string name;
  /// Fraction of operations that are mutations (split evenly over point /
  /// weight insert / delete).
  double write_frac = 0.0;
  uint32_t rtk_k = 10;
  uint32_t rkr_k = 10;
  /// Scan's write tail: every op is a mutation, alternately inserting a
  /// uniform point and deleting it again by its live id, kPoints. That id
  /// holds because the stream is the only writer and starts from the
  /// initial points. The delta's score lists, and with them the cost of a
  /// write, stay the same size throughout.
  bool insert_delete_pairs = false;
  /// One query in `check_every` is checked against the replica oracle
  /// (a DynamicGirIndex in the served scan mode), chosen by seed before
  /// the run (1 = every query).
  uint32_t check_every = 1;
  /// One query in `reference_every` is checked against the reference
  /// oracle (oracle.h: code the served path never runs, over the live
  /// sets), chosen by seed before the run. Its exhaustive reverse k-ranks
  /// costs ~0.1 s a query, hence the sparser budget.
  uint32_t reference_every = 1;
};

/// False (and *out untouched) for an unknown workload name.
bool FindWorkload(const std::string& name, WorkloadSpec* out);

enum class OpKind : uint8_t {
  kRtk = 0,
  kRkr = 1,
  kInsertPoint = 2,
  kDeletePoint = 3,
  kInsertWeight = 4,
  kDeleteWeight = 5,
};
const char* OpKindName(OpKind kind);
inline bool IsQuery(OpKind kind) {
  return kind == OpKind::kRtk || kind == OpKind::kRkr;
}

struct Op {
  OpKind kind = OpKind::kRtk;
  uint32_t k = 0;
  /// Query row, or the inserted point / weight.
  std::vector<double> row;
  /// Live id for the delete kinds.
  uint64_t target = 0;
  /// Checked against the replica / the reference oracle (queries only;
  /// decided by seed).
  bool checked = false;
  bool referenced = false;
  /// (client << 32) | index within the client's stream: one op's identity
  /// across the served run, the oracle and the layer replay.
  uint64_t id = 0;
};

/// Initial data sets, generated from the seed.
gir::Dataset MakePoints(uint64_t seed);
gir::Dataset MakeWeights(uint64_t seed);

/// One client's operation stream.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, uint64_t seed, uint32_t client);
  Op Next();

 private:
  std::vector<double> UniformPoint();
  std::vector<double> SimplexWeight();

  WorkloadSpec spec_;
  uint64_t seed_;
  uint32_t client_;
  uint64_t index_ = 0;
  gir::Rng rng_;
};

/// The first `per_client` ops of every client, interleaved round-robin
/// (client 0 op 0, client 1 op 0, ...): the in-process replay order.
std::vector<Op> InterleavedOps(const WorkloadSpec& spec, uint64_t seed,
                               size_t per_client);

/// Ops [from[c], from[c] + per_client) of every client c, interleaved
/// round-robin, with the mutations the clients issued before them
/// (interleaved the same way) in `*prefix`: a stretch of the served run's
/// measured window, and what brings an index to its state.
std::vector<Op> StretchOps(const WorkloadSpec& spec, uint64_t seed,
                           const std::vector<uint64_t>& from,
                           size_t per_client, std::vector<Op>* prefix);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
