#include "workload.h"

#include "data/generators.h"
#include "data/weights.h"

namespace perfbench {
namespace {

// Seed derivation: one independent stream per purpose, so adding a client
// or a workload never shifts another stream's values.
uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr uint64_t kPointsStream = 1;
constexpr uint64_t kWeightsStream = 2;
constexpr uint64_t kClientStream = 100;
constexpr uint64_t kCheckStream = 200;
constexpr uint64_t kReferenceStream = 300;

uint64_t WorkloadTag(const std::string& name) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : name) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  return h;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  // scan: fresh points, RTK k=100 (above tau's k_max = 64) — the blocked
  //       grid scan does the work; read-only, so cache/WAL stay idle.
  // churn: a quarter writes — delta maintenance, WAL, compaction.
  // cluster: churn's query mix at 5% writes through gir_router.
  // check_every / reference_every trade oracle time for coverage; the
  // replica checks every scan answer.
  static const WorkloadSpec kSpecs[] = {
      {"scan", 0.0, 100, 10, false, 1, 8},
      {"churn", 0.25, 10, 10, false, 4, 64},
      {"cluster", 0.05, 10, 10, false, 4, 48},
  };
  for (const WorkloadSpec& spec : kSpecs) {
    if (spec.name == name) {
      *out = spec;
      return true;
    }
  }
  return false;
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kRtk:
      return "rtk";
    case OpKind::kRkr:
      return "rkr";
    case OpKind::kInsertPoint:
      return "insert_point";
    case OpKind::kDeletePoint:
      return "delete_point";
    case OpKind::kInsertWeight:
      return "insert_weight";
    case OpKind::kDeleteWeight:
      return "delete_weight";
  }
  return "?";
}

gir::Dataset MakePoints(uint64_t seed) {
  return gir::GenerateUniform(kPoints, kDim, Mix(seed, kPointsStream));
}

gir::Dataset MakeWeights(uint64_t seed) {
  return gir::GenerateWeightsUniform(kWeights, kDim, Mix(seed, kWeightsStream));
}

OpStream::OpStream(const WorkloadSpec& spec, uint64_t seed, uint32_t client)
    : spec_(spec),
      seed_(seed),
      client_(client),
      rng_(Mix(Mix(seed, WorkloadTag(spec.name)), kClientStream + client)) {}

std::vector<double> OpStream::UniformPoint() {
  std::vector<double> row(kDim);
  for (double& v : row) v = rng_.NextDouble(0.0, kRange);
  return row;
}

std::vector<double> OpStream::SimplexWeight() {
  // Dirichlet(1,...,1) as normalized exponentials — the distribution of
  // the initial weight set.
  std::vector<double> row(kDim);
  double sum = 0.0;
  for (double& v : row) {
    v = rng_.NextExponential(1.0);
    sum += v;
  }
  for (double& v : row) v /= sum;
  return row;
}

Op OpStream::Next() {
  Op op;
  op.id = (static_cast<uint64_t>(client_) << 32) | index_;
  if (spec_.insert_delete_pairs) {
    if (index_ % 2 == 0) {
      op.kind = OpKind::kInsertPoint;
      op.row = UniformPoint();
    } else {
      op.kind = OpKind::kDeletePoint;
      op.target = kPoints;
    }
    ++index_;
    return op;
  }
  const double u = rng_.NextDouble();
  if (u < spec_.write_frac) {
    // Equal shares of the four mutation kinds keep |P| and |W| near their
    // start. Deletes target the lower half of the live ids, which stays
    // valid however the concurrent clients' inserts and deletes interleave.
    switch (rng_.NextIndex(4)) {
      case 0:
        op.kind = OpKind::kInsertPoint;
        op.row = UniformPoint();
        break;
      case 1:
        op.kind = OpKind::kDeletePoint;
        op.target = rng_.NextIndex(kPoints / 2);
        break;
      case 2:
        op.kind = OpKind::kInsertWeight;
        op.row = SimplexWeight();
        break;
      default:
        op.kind = OpKind::kDeleteWeight;
        op.target = rng_.NextIndex(kWeights / 2);
        break;
    }
  } else {
    const bool rtk = rng_.NextIndex(2) == 0;
    op.kind = rtk ? OpKind::kRtk : OpKind::kRkr;
    op.k = rtk ? spec_.rtk_k : spec_.rkr_k;
    op.row = UniformPoint();
    op.checked =
        Mix(Mix(seed_, kCheckStream), op.id) % spec_.check_every == 0;
    op.referenced = Mix(Mix(seed_, kReferenceStream), op.id) %
                        spec_.reference_every ==
                    0;
  }
  ++index_;
  return op;
}

std::vector<Op> InterleavedOps(const WorkloadSpec& spec, uint64_t seed,
                               size_t per_client) {
  std::vector<Op> none;
  return StretchOps(spec, seed, {}, per_client, &none);
}

std::vector<Op> StretchOps(const WorkloadSpec& spec, uint64_t seed,
                           const std::vector<uint64_t>& from,
                           size_t per_client, std::vector<Op>* prefix) {
  std::vector<std::vector<Op>> before(kClients), stretch(kClients);
  for (uint32_t c = 0; c < kClients; ++c) {
    OpStream s(spec, seed, c);
    const uint64_t first = c < from.size() ? from[c] : 0;
    for (uint64_t i = 0; i < first; ++i) {
      Op op = s.Next();
      if (!IsQuery(op.kind)) before[c].push_back(std::move(op));
    }
    for (size_t i = 0; i < per_client; ++i) stretch[c].push_back(s.Next());
  }
  prefix->clear();
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (const std::vector<Op>& ops : before) {
      if (i < ops.size()) {
        prefix->push_back(ops[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  std::vector<Op> ops;
  for (size_t i = 0; i < per_client; ++i) {
    for (std::vector<Op>& s : stretch) ops.push_back(std::move(s[i]));
  }
  return ops;
}

}  // namespace perfbench
