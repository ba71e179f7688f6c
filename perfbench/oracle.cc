#include "oracle.h"

#include <string>
#include <utility>

#include "core/naive.h"

namespace perfbench {
namespace {

/// Checks queued before a batch runs: enough to keep the pool busy across
/// checks of unequal cost, few enough to bound the snapshots alive at once
/// (about 1 MB each).
constexpr size_t kMaxPending = 32;

void EraseRow(std::vector<double>& rows, size_t id) {
  rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(id * kDim),
             rows.begin() + static_cast<std::ptrdiff_t>((id + 1) * kDim));
}

}  // namespace

Reference::Reference(const gir::Dataset& points, const gir::Dataset& weights,
                     gir::ThreadPool& pool)
    : pool_(pool), points_(points.flat()), weights_(weights.flat()) {}

gir::Status Reference::Apply(const Op& op) {
  std::vector<double>& rows =
      op.kind == OpKind::kInsertPoint || op.kind == OpKind::kDeletePoint
          ? points_
          : weights_;
  switch (op.kind) {
    case OpKind::kInsertPoint:
    case OpKind::kInsertWeight:
      rows.insert(rows.end(), op.row.begin(), op.row.end());
      break;
    case OpKind::kDeletePoint:
    case OpKind::kDeleteWeight:
      if (op.target >= rows.size() / kDim) {
        return gir::Status::InvalidArgument("delete of a dead id " +
                                            std::to_string(op.target));
      }
      EraseRow(rows, op.target);
      break;
    default:
      return gir::Status::Internal("not a mutation");
  }
  snap_.reset();
  return gir::Status::OK();
}

void Reference::Expect(const Op& op, const gir::ReverseTopKResult& rtk,
                       const gir::ReverseKRanksResult& rkr) {
  if (snap_ == nullptr) {
    auto snap = std::make_shared<Snapshot>();
    auto p = gir::Dataset::FromFlat(kDim, points_);
    auto w = gir::Dataset::FromFlat(kDim, weights_);
    if (p.ok() && w.ok()) {
      snap->points = std::move(p).value();
      snap->weights = std::move(w).value();
      gir::GirOptions opts;
      opts.scan_mode = gir::ScanMode::kWeightAtATime;
      opts.use_block_max = false;  // only the blocked engine reads it
      auto index = gir::GirIndex::Build(snap->points, snap->weights, opts);
      if (index.ok()) snap->index.emplace(std::move(index).value());
    }
    snap_ = std::move(snap);
  }
  pending_.push_back(Task{snap_, &op, &rtk, &rkr});
  if (pending_.size() >= kMaxPending) Flush();
}

void Reference::Flush() {
  std::vector<char> bad(pending_.size(), 0);
  pool_.ParallelFor(0, pending_.size(), 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Task& t = pending_[i];
      if (!t.snap->index.has_value()) {
        bad[i] = 1;  // the live sets could not be indexed
      } else if (t.op->kind == OpKind::kRtk) {
        bad[i] = t.snap->index->ReverseTopK(gir::ConstRow(t.op->row),
                                            t.op->k) != *t.rtk;
      } else {
        bad[i] = gir::NaiveReverseKRanks(t.snap->points, t.snap->weights,
                                         gir::ConstRow(t.op->row),
                                         t.op->k) != *t.rkr;
      }
    }
  });
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (bad[i]) wrong_.push_back(pending_[i].op->id);
  }
  checked_ += pending_.size();
  pending_.clear();
}

std::vector<uint64_t> Reference::Finish() {
  Flush();
  return wrong_;
}

}  // namespace perfbench
