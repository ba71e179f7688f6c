#include "grid/gir_queries.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/thread_pool.h"
#include "grid/blocked_scan.h"

namespace gir {

namespace {

/// Iterates weight batches of the scanner's batch width over [0, total),
/// invoking fn(begin, end) for each.
template <typename Fn>
void ForEachWeightBatch(size_t total, size_t batch, Fn&& fn) {
  for (size_t begin = 0; begin < total; begin += batch) {
    fn(begin, std::min(begin + batch, total));
  }
}

/// Pushes one RKR candidate through the shared (rank, id) max-heap logic.
/// Identical to the sequential weight-at-a-time update, so blocked and
/// serial engines keep bit-identical heaps when fed in id order.
void PushRankedWeight(std::vector<RankedWeight>& heap, size_t k,
                      RankedWeight entry) {
  if (heap.size() < k) {
    heap.push_back(entry);
    std::push_heap(heap.begin(), heap.end());
  } else if (entry < heap.front()) {
    std::pop_heap(heap.begin(), heap.end());
    heap.back() = entry;
    std::push_heap(heap.begin(), heap.end());
  }
}

/// Stripe grain for pool-parallel τ passes: a few stripes per worker.
size_t TauStripeGrain(size_t total, size_t threads) {
  const size_t target_stripes = std::max<size_t>(1, threads * 4);
  return std::max<size_t>(1, (total + target_stripes - 1) / target_stripes);
}

/// Pass 1 of the τ-bracketed engines: one register-tiled ScoreBlock sweep
/// scores every query row under every weight, then bracket(begin, end,
/// scores) settles that stripe's (query, weight) slots; `scores` is
/// rows.size() x |W|, row-major. Large W stripes over `pool`.
template <typename BracketFn>
void TauBracketPass(const TauIndex& tau, std::span<const ConstRow> rows,
                    ThreadPool* pool, QueryStats* stats, BracketFn&& bracket) {
  const size_t num_queries = rows.size();
  const size_t m = tau.num_weights();
  std::vector<const double*> qrows(num_queries);
  for (size_t qi = 0; qi < num_queries; ++qi) qrows[qi] = rows[qi].data();
  std::vector<double> scores(num_queries * m);
  auto stripe = [&](size_t begin, size_t end) {
    tau.ScoreBlock(qrows.data(), num_queries, begin, end,
                   scores.data() + begin, m);
    bracket(begin, end, scores.data());
  };
  if (pool == nullptr || pool->thread_count() <= 1 || m < 1024) {
    stripe(0, m);
  } else {
    pool->ParallelFor(0, m, TauStripeGrain(m, pool->thread_count()), stripe);
  }
  if (stats != nullptr) {
    stats->weights_evaluated += m * num_queries;
    stats->inner_products += m * num_queries;
    stats->multiplications += m * num_queries * tau.dim();
  }
}

}  // namespace

std::vector<ConstRow> QueryRows(const Dataset& queries) {
  std::vector<ConstRow> rows;
  rows.reserve(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    rows.push_back(queries.row(qi));
  }
  return rows;
}

GirIndex::GirIndex(const Dataset& points, const Dataset& weights,
                   GridIndex grid, ApproxVectors point_cells,
                   ApproxVectors weight_cells, GirOptions options)
    : points_(&points),
      weights_(&weights),
      grid_(std::move(grid)),
      point_cells_(std::move(point_cells)),
      weight_cells_(std::move(weight_cells)),
      options_(options) {}

Result<GirIndex> GirIndex::Build(const Dataset& points, const Dataset& weights,
                                 const GirOptions& options) {
  if (points.empty()) {
    return Status::InvalidArgument("point set must be non-empty");
  }
  // A zero range (all-zero data) degenerates; use 1 so the grid is valid
  // and every value lands in cell 0.
  const double point_range = std::max(points.MaxValue(), 1e-300);
  const double weight_range = std::max(weights.MaxValue(), 1e-300);
  auto pp = Partitioner::Uniform(options.partitions, point_range);
  if (!pp.ok()) return pp.status();
  auto wp = Partitioner::Uniform(options.partitions, weight_range);
  if (!wp.ok()) return wp.status();
  return BuildWithPartitioners(points, weights, std::move(pp).value(),
                               std::move(wp).value(), options);
}

Result<GirIndex> GirIndex::BuildWithPartitioners(
    const Dataset& points, const Dataset& weights,
    Partitioner point_partitioner, Partitioner weight_partitioner,
    const GirOptions& options) {
  if (points.empty()) {
    return Status::InvalidArgument("point set must be non-empty");
  }
  if (points.dim() != weights.dim()) {
    return Status::InvalidArgument(
        "dimension mismatch: points " + std::to_string(points.dim()) +
        " vs weights " + std::to_string(weights.dim()));
  }
  if (point_partitioner.boundaries().back() < points.MaxValue()) {
    return Status::InvalidArgument(
        "point partitioner range does not cover the dataset maximum");
  }
  if (weight_partitioner.boundaries().back() < weights.MaxValue()) {
    return Status::InvalidArgument(
        "weight partitioner range does not cover the dataset maximum");
  }
  GridIndex grid = GridIndex::Make(std::move(point_partitioner),
                                   std::move(weight_partitioner));
  ApproxVectors pa = ApproxVectors::Build(points, grid.point_partitioner());
  ApproxVectors wa = ApproxVectors::Build(weights, grid.weight_partitioner());
  GirIndex index(points, weights, std::move(grid), std::move(pa),
                 std::move(wa), options);
  if (options.scan_mode == ScanMode::kTauIndex) {
    auto tau = TauIndex::Build(points, weights, options.tau);
    if (!tau.ok()) return tau.status();
    index.tau_ = std::make_shared<const TauIndex>(std::move(tau).value());
  }
  if (options.use_block_max) {
    // Block size must match what the blocked engine will derive, or the
    // scanner refuses to arm the cursor (see BlockedScanner's ctor).
    auto bmx = BlockMaxIndex::Build(
        points, BlockedScanner::BlockPointsFor(points.dim()));
    if (!bmx.ok()) return bmx.status();
    index.bmx_ =
        std::make_shared<const BlockMaxIndex>(std::move(bmx).value());
  }
  return index;
}

Status GirIndex::AttachTauIndex(std::shared_ptr<const TauIndex> tau) {
  if (tau == nullptr) {
    return Status::InvalidArgument("tau index must be non-null");
  }
  if (tau->dim() != points_->dim() ||
      tau->num_points() != points_->size() ||
      tau->num_weights() != weights_->size()) {
    return Status::InvalidArgument(
        "tau index shape does not match this index's datasets");
  }
  tau_ = std::move(tau);
  return Status::OK();
}

Status GirIndex::AttachBlockMax(std::shared_ptr<const BlockMaxIndex> bmx) {
  if (bmx == nullptr) {
    return Status::InvalidArgument("block-max index must be non-null");
  }
  if (bmx->dim() != points_->dim() ||
      bmx->num_points() != points_->size() ||
      bmx->block_points() !=
          BlockedScanner::BlockPointsFor(points_->dim())) {
    return Status::InvalidArgument(
        "block-max index shape does not match this index's point blocks");
  }
  bmx_ = std::move(bmx);
  return Status::OK();
}

Result<GirIndex> GirIndex::Assemble(const Dataset& points,
                                    const Dataset& weights,
                                    Partitioner point_partitioner,
                                    Partitioner weight_partitioner,
                                    ApproxVectors point_cells,
                                    ApproxVectors weight_cells,
                                    const GirOptions& options) {
  if (points.empty()) {
    return Status::InvalidArgument("point set must be non-empty");
  }
  if (points.dim() != weights.dim()) {
    return Status::InvalidArgument("dimension mismatch between P and W");
  }
  if (point_cells.size() != points.size() ||
      point_cells.dim() != points.dim()) {
    return Status::InvalidArgument("point cells do not match the point set");
  }
  if (weight_cells.size() != weights.size() ||
      weight_cells.dim() != weights.dim()) {
    return Status::InvalidArgument(
        "weight cells do not match the weight set");
  }
  if (point_partitioner.boundaries().back() < points.MaxValue() ||
      weight_partitioner.boundaries().back() < weights.MaxValue()) {
    return Status::InvalidArgument(
        "partitioner ranges do not cover the datasets");
  }
  const size_t np = point_partitioner.partitions();
  const size_t nw = weight_partitioner.partitions();
  for (uint8_t cell : point_cells.cells()) {
    if (cell >= np) {
      return Status::Corruption("point cell id out of range");
    }
  }
  for (uint8_t cell : weight_cells.cells()) {
    if (cell >= nw) {
      return Status::Corruption("weight cell id out of range");
    }
  }
  GridIndex grid = GridIndex::Make(std::move(point_partitioner),
                                   std::move(weight_partitioner));
  return GirIndex(points, weights, std::move(grid), std::move(point_cells),
                  std::move(weight_cells), options);
}

ReverseTopKResult GirIndex::ReverseTopK(ConstRow q, size_t k,
                                        QueryStats* stats) const {
  // rank < 0 is unsatisfiable: answer empty without scanning (and without
  // counting scans), identically across every engine and batch shape.
  if (k == 0 || weights_->empty()) return {};
  if (options_.scan_mode == ScanMode::kTauIndex && tau_ != nullptr) {
    return TauReverseTopKBatch({&q, 1}, k, /*pool=*/nullptr, stats)[0];
  }
  // kTauIndex without an attached τ-index runs on the blocked engine.
  if (options_.scan_mode != ScanMode::kWeightAtATime) {
    return BlockedReverseTopK(q, k, stats);
  }
  GinContext ctx{points_, &point_cells_, &grid_, options_.bound_mode};
  DominBuffer domin(points_->size());
  DominBuffer* domin_ptr = options_.use_domin ? &domin : nullptr;
  GinScratch scratch;
  ReverseTopKResult result;
  const int64_t threshold = static_cast<int64_t>(k);
  for (size_t i = 0; i < weights_->size(); ++i) {
    const int64_t rank = GInTopK(ctx, weights_->row(i), weight_cells_.row(i),
                                 q, threshold, domin_ptr, scratch, stats);
    if (rank != kRankOverThreshold) {
      result.push_back(static_cast<VectorId>(i));
    }
    if (domin_ptr != nullptr && domin_ptr->count() >= threshold) {
      // Algorithm 2 lines 7-8: k dominating points place q outside every
      // preference's top-k. Weights i+1.. were never evaluated, so the
      // stats reflect only the i+1 scans that actually ran.
      if (stats != nullptr) stats->weights_evaluated += i + 1;
      return {};
    }
  }
  if (stats != nullptr) stats->weights_evaluated += weights_->size();
  return result;
}

ReverseTopKResult GirIndex::BlockedReverseTopK(ConstRow q, size_t k,
                                               QueryStats* stats) const {
  if (k == 0 || weights_->empty()) return {};
  BlockedScanner scanner(*points_, point_cells_, *weights_, weight_cells_,
                         grid_, options_.bound_mode, {}, bmx_.get());
  const BlockedScanner::QueryContext qctx =
      scanner.MakeQueryContext(q, options_.use_domin);
  const int64_t threshold = static_cast<int64_t>(k);
  if (options_.use_domin && qctx.dominator_count >= threshold) {
    // Algorithm 2 lines 7-8, decided upfront: the dominator pass found
    // >= k points dominating q, so no weight retains it. No weights were
    // evaluated.
    return {};
  }
  BlockedScratch scratch;
  std::vector<int64_t> thresholds;
  std::vector<int64_t> ranks;
  ReverseTopKResult result;
  ForEachWeightBatch(
      weights_->size(), scanner.weight_batch(), [&](size_t begin, size_t end) {
        thresholds.assign(end - begin, threshold);
        ranks.resize(end - begin);
        scanner.RankBatch(q, qctx, begin, end, thresholds.data(),
                          ranks.data(), scratch, stats);
        for (size_t i = 0; i < end - begin; ++i) {
          if (ranks[i] != kRankOverThreshold) {
            result.push_back(static_cast<VectorId>(begin + i));
          }
        }
      });
  if (stats != nullptr) stats->weights_evaluated += weights_->size();
  return result;
}

ReverseKRanksResult GirIndex::ReverseKRanks(ConstRow q, size_t k,
                                            QueryStats* stats) const {
  if (k == 0 || weights_->empty()) return {};
  if (options_.scan_mode == ScanMode::kTauIndex && tau_ != nullptr) {
    return TauReverseKRanksBatch({&q, 1}, k, /*pool=*/nullptr, stats)[0];
  }
  if (options_.scan_mode != ScanMode::kWeightAtATime) {
    return BlockedReverseKRanks(q, k, stats);
  }
  GinContext ctx{points_, &point_cells_, &grid_, options_.bound_mode};
  DominBuffer domin(points_->size());
  DominBuffer* domin_ptr = options_.use_domin ? &domin : nullptr;
  GinScratch scratch;
  // Max-heap on (rank, weight_id); front is the worst retained entry.
  std::vector<RankedWeight> heap;
  heap.reserve(k + 1);
  const int64_t no_threshold = static_cast<int64_t>(points_->size()) + 1;
  for (size_t i = 0; i < weights_->size(); ++i) {
    // Weights are processed in increasing id order, so the heap top's rank
    // is a sound strict threshold (Algorithm 3's self-refining minRank).
    const int64_t threshold =
        (heap.size() == k && k > 0) ? heap.front().rank : no_threshold;
    const int64_t rank = GInTopK(ctx, weights_->row(i), weight_cells_.row(i),
                                 q, threshold, domin_ptr, scratch, stats);
    if (rank == kRankOverThreshold || k == 0) continue;
    RankedWeight entry{static_cast<VectorId>(i), rank};
    if (heap.size() < k) {
      heap.push_back(entry);
      std::push_heap(heap.begin(), heap.end());
    } else {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = entry;
      std::push_heap(heap.begin(), heap.end());
    }
  }
  if (stats != nullptr) stats->weights_evaluated += weights_->size();
  std::sort(heap.begin(), heap.end());
  return heap;
}

ReverseKRanksResult GirIndex::BlockedReverseKRanks(ConstRow q, size_t k,
                                                   QueryStats* stats) const {
  if (k == 0 || weights_->empty()) return {};
  BlockedScanner scanner(*points_, point_cells_, *weights_, weight_cells_,
                         grid_, options_.bound_mode, {}, bmx_.get());
  const BlockedScanner::QueryContext qctx =
      scanner.MakeQueryContext(q, options_.use_domin);
  BlockedScratch scratch;
  std::vector<int64_t> thresholds;
  std::vector<int64_t> ranks;
  std::vector<RankedWeight> heap;
  heap.reserve(k + 1);
  const int64_t no_threshold = static_cast<int64_t>(points_->size()) + 1;
  ForEachWeightBatch(
      weights_->size(), scanner.weight_batch(), [&](size_t begin, size_t end) {
        // The heap bound refreshes at batch granularity instead of per
        // weight. A looser (stale) threshold only turns some
        // over-threshold verdicts into exact ranks; the heap update below
        // rejects exactly the entries the per-weight threshold would have
        // pruned, so the final heap is bit-identical to the serial scan's.
        const int64_t threshold =
            heap.size() == k ? heap.front().rank : no_threshold;
        thresholds.assign(end - begin, threshold);
        ranks.resize(end - begin);
        scanner.RankBatch(q, qctx, begin, end, thresholds.data(),
                          ranks.data(), scratch, stats);
        for (size_t i = 0; i < end - begin; ++i) {
          if (ranks[i] == kRankOverThreshold) continue;
          PushRankedWeight(heap, k,
                           RankedWeight{static_cast<VectorId>(begin + i),
                                        ranks[i]});
        }
      });
  if (stats != nullptr) stats->weights_evaluated += weights_->size();
  std::sort(heap.begin(), heap.end());
  return heap;
}

std::vector<ReverseTopKResult> GirIndex::ReverseTopKBatch(
    const Dataset& queries, size_t k, QueryStats* stats) const {
  const size_t num_queries = queries.size();
  std::vector<ReverseTopKResult> results(num_queries);
  // Same degenerate-query policy as the per-query entry point: k == 0
  // answers empty with zero scans, so batch counters stay equal to the
  // sum of the equivalent per-query runs.
  if (num_queries == 0 || k == 0 || weights_->empty()) return results;
  const std::vector<ConstRow> rows = QueryRows(queries);
  if (options_.scan_mode == ScanMode::kTauIndex && tau_ != nullptr) {
    return TauReverseTopKBatch(rows, k, /*pool=*/nullptr, stats);
  }
  BlockedScanner scanner(*points_, point_cells_, *weights_, weight_cells_,
                         grid_, options_.bound_mode, {}, bmx_.get());
  const int64_t threshold = static_cast<int64_t>(k);

  std::vector<BlockedScanner::QueryContext> qctxs(num_queries);
  std::vector<uint8_t> alive(num_queries, 1);
  size_t alive_count = 0;
  for (size_t qi = 0; qi < num_queries; ++qi) {
    qctxs[qi] = scanner.MakeQueryContext(rows[qi], options_.use_domin);
    if (options_.use_domin && qctxs[qi].dominator_count >= threshold) {
      alive[qi] = 0;  // >= k dominators: empty answer, no scans needed
    } else {
      ++alive_count;
    }
  }
  if (alive_count == 0) return results;

  BlockedScratch scratch;
  std::vector<int64_t> thresholds;
  std::vector<int64_t> ranks;
  ForEachWeightBatch(
      weights_->size(), scanner.weight_batch(), [&](size_t begin, size_t end) {
        // One table build per weight batch serves every query, and
        // RankPreparedMulti streams each point block (and accumulates
        // each weight's bounds) once for the whole query block.
        const size_t bl = end - begin;
        thresholds.resize(num_queries * bl);
        ranks.resize(num_queries * bl);
        for (size_t qi = 0; qi < num_queries; ++qi) {
          // Threshold 0 masks a settled query's slots at no scan cost.
          std::fill_n(thresholds.begin() + qi * bl, bl,
                      alive[qi] != 0 ? threshold : 0);
        }
        scanner.PrepareBatch(begin, end, scratch);
        scanner.RankPreparedMulti(rows.data(), qctxs.data(), num_queries,
                                  begin, end, thresholds.data(), ranks.data(),
                                  scratch, stats);
        for (size_t qi = 0; qi < num_queries; ++qi) {
          if (alive[qi] == 0) continue;
          for (size_t i = 0; i < bl; ++i) {
            if (ranks[qi * bl + i] != kRankOverThreshold) {
              results[qi].push_back(static_cast<VectorId>(begin + i));
            }
          }
        }
      });
  if (stats != nullptr) {
    stats->weights_evaluated += weights_->size() * alive_count;
  }
  return results;
}

std::vector<ReverseKRanksResult> GirIndex::ReverseKRanksBatch(
    const Dataset& queries, size_t k, QueryStats* stats) const {
  const size_t num_queries = queries.size();
  std::vector<ReverseKRanksResult> results(num_queries);
  if (num_queries == 0 || k == 0 || weights_->empty()) return results;
  const std::vector<ConstRow> rows = QueryRows(queries);
  if (options_.scan_mode == ScanMode::kTauIndex && tau_ != nullptr) {
    return TauReverseKRanksBatch(rows, k, /*pool=*/nullptr, stats);
  }
  BlockedScanner scanner(*points_, point_cells_, *weights_, weight_cells_,
                         grid_, options_.bound_mode, {}, bmx_.get());
  std::vector<BlockedScanner::QueryContext> qctxs(num_queries);
  for (size_t qi = 0; qi < num_queries; ++qi) {
    qctxs[qi] = scanner.MakeQueryContext(rows[qi], options_.use_domin);
  }
  std::vector<std::vector<RankedWeight>> heaps(num_queries);
  for (auto& heap : heaps) heap.reserve(k + 1);
  const int64_t no_threshold = static_cast<int64_t>(points_->size()) + 1;
  const size_t m = weights_->size();

  BlockedScratch scratch;
  std::vector<int64_t> thresholds;
  std::vector<int64_t> ranks;

  // Bracketing pre-pass (DESIGN.md §11): one bounds-only sweep brackets
  // every (query, weight) rank. The k-th smallest upper bound per query
  // caps that query's final k-th rank — at least k weights have exact
  // ranks no larger — so a weight whose lower bound exceeds the cap is
  // provably outside the answer and is masked from the exact pass, and
  // every surviving slot starts with a tight death threshold instead of
  // an unbounded one. Answer members always survive (rank <= cap < cap +
  // 1), so the final heaps match the per-query scan exactly.
  const bool bracket = num_queries >= 2 && m > k;
  std::vector<int64_t> rank_lb;
  std::vector<int64_t> caps(num_queries, no_threshold - 1);
  if (bracket) {
    rank_lb.resize(num_queries * m);
    std::vector<int64_t> rank_ub(num_queries * m);
    ForEachWeightBatch(m, scanner.weight_batch(),
                       [&](size_t begin, size_t end) {
                         scanner.PrepareBatch(begin, end, scratch);
                         scanner.BracketRanksMulti(
                             rows.data(), qctxs.data(), num_queries, begin,
                             end, rank_lb.data() + begin,
                             rank_ub.data() + begin, m, scratch, stats);
                       });
    std::vector<int64_t> row(m);
    for (size_t qi = 0; qi < num_queries; ++qi) {
      std::copy_n(rank_ub.begin() + qi * m, m, row.begin());
      std::nth_element(row.begin(), row.begin() + (k - 1), row.end());
      caps[qi] = row[k - 1];
    }
  }

  ForEachWeightBatch(
      weights_->size(), scanner.weight_batch(), [&](size_t begin, size_t end) {
        // Each query's heap bound refreshes at batch granularity, exactly
        // as the single-query blocked path does; RankPreparedMulti then
        // resolves the whole query block against this batch in one pass
        // over the point blocks.
        const size_t bl = end - begin;
        thresholds.resize(num_queries * bl);
        ranks.resize(num_queries * bl);
        for (size_t qi = 0; qi < num_queries; ++qi) {
          const int64_t heap_cap =
              heaps[qi].size() == k ? heaps[qi].front().rank : no_threshold;
          const int64_t threshold = std::min(heap_cap, caps[qi] + 1);
          if (!bracket) {
            std::fill_n(thresholds.begin() + qi * bl, bl, threshold);
            continue;
          }
          for (size_t i = 0; i < bl; ++i) {
            // Threshold 0 masks a provably-out weight at no scan cost.
            thresholds[qi * bl + i] =
                rank_lb[qi * m + begin + i] > caps[qi] ? 0 : threshold;
          }
        }
        scanner.PrepareBatch(begin, end, scratch);
        scanner.RankPreparedMulti(rows.data(), qctxs.data(), num_queries,
                                  begin, end, thresholds.data(), ranks.data(),
                                  scratch, stats);
        for (size_t qi = 0; qi < num_queries; ++qi) {
          for (size_t i = 0; i < bl; ++i) {
            if (ranks[qi * bl + i] == kRankOverThreshold) continue;
            PushRankedWeight(heaps[qi], k,
                             RankedWeight{static_cast<VectorId>(begin + i),
                                          ranks[qi * bl + i]});
          }
        }
      });
  for (size_t qi = 0; qi < num_queries; ++qi) {
    std::sort(heaps[qi].begin(), heaps[qi].end());
    results[qi] = std::move(heaps[qi]);
  }
  if (stats != nullptr) {
    stats->weights_evaluated += weights_->size() * num_queries;
  }
  return results;
}

std::vector<std::pair<size_t, RankedWeight>> GirIndex::MaskedFallback(
    std::span<const ConstRow> rows, const std::vector<int64_t>& thresholds,
    const std::vector<std::vector<RankedWeight>>* heaps, size_t k,
    ThreadPool* pool, QueryStats* stats) const {
  const size_t num_queries = rows.size();
  const size_t m = weights_->size();
  BlockedScanner scanner(*points_, point_cells_, *weights_, weight_cells_,
                         grid_, options_.bound_mode, {}, bmx_.get());
  const size_t batch = scanner.weight_batch();
  std::vector<size_t> open(num_queries, 0);
  std::vector<size_t> batch_starts;
  for (size_t b = 0; b < m; b += batch) {
    const size_t e = std::min(b + batch, m);
    bool any = false;
    for (size_t qi = 0; qi < num_queries; ++qi) {
      for (size_t w = b; w < e; ++w) {
        if (thresholds[qi * m + w] > 0) {
          ++open[qi];
          any = true;
        }
      }
    }
    if (any) batch_starts.push_back(b);
  }
  std::vector<std::pair<size_t, RankedWeight>> found;
  if (batch_starts.empty()) return found;

  // A query with no open slot keeps the empty context: all its thresholds
  // are 0, which masks every slot before any scan. The dominance pass
  // costs O(n·d) per query and only pays off over enough open weights;
  // the answers are identical either way.
  const bool parallel = pool != nullptr && pool->thread_count() > 1;
  std::vector<BlockedScanner::QueryContext> qctxs(num_queries);
  auto make_contexts = [&](size_t begin, size_t end) {
    for (size_t qi = begin; qi < end; ++qi) {
      if (open[qi] == 0) continue;
      qctxs[qi] = scanner.MakeQueryContext(
          rows[qi], options_.use_domin &&
                        open[qi] >= BlockedScanner::kDominMinWeights);
    }
  };
  if (parallel && num_queries > 1) {
    pool->ParallelFor(0, num_queries, 1, make_contexts);
  } else {
    make_contexts(0, num_queries);
  }

  // Workers tighten private copies of the k-ranks heaps (pruning only) and
  // return every exact rank they uncover; the k smallest of a multiset are
  // insertion-order independent, so the caller's merge reproduces the
  // serial answer.
  auto scan_batches = [&](size_t bi_begin, size_t bi_end,
                          std::vector<std::pair<size_t, RankedWeight>>& out,
                          QueryStats* batch_stats) {
    std::vector<std::vector<RankedWeight>> local_heaps;
    if (heaps != nullptr) local_heaps = *heaps;
    BlockedScratch scratch;
    std::vector<int64_t> batch_thresholds;
    std::vector<int64_t> ranks;
    for (size_t bi = bi_begin; bi < bi_end; ++bi) {
      const size_t b = batch_starts[bi];
      const size_t bl = std::min(b + batch, m) - b;
      batch_thresholds.resize(num_queries * bl);
      ranks.resize(num_queries * bl);
      for (size_t qi = 0; qi < num_queries; ++qi) {
        int64_t cap = std::numeric_limits<int64_t>::max();
        if (heaps != nullptr && local_heaps[qi].size() == k) {
          cap = local_heaps[qi].front().rank + 1;
        }
        for (size_t i = 0; i < bl; ++i) {
          batch_thresholds[qi * bl + i] =
              std::min(thresholds[qi * m + b + i], cap);
        }
      }
      scanner.PrepareBatch(b, b + bl, scratch);
      scanner.RankPreparedMulti(rows.data(), qctxs.data(), num_queries, b,
                                b + bl, batch_thresholds.data(), ranks.data(),
                                scratch, batch_stats);
      for (size_t qi = 0; qi < num_queries; ++qi) {
        for (size_t i = 0; i < bl; ++i) {
          // Masked slots (threshold 0) always come back over threshold.
          if (ranks[qi * bl + i] == kRankOverThreshold) continue;
          const RankedWeight entry{static_cast<VectorId>(b + i),
                                   ranks[qi * bl + i]};
          if (heaps != nullptr) PushRankedWeight(local_heaps[qi], k, entry);
          out.emplace_back(qi, entry);
        }
      }
    }
  };

  if (!parallel || batch_starts.size() < 8) {
    scan_batches(0, batch_starts.size(), found, stats);
  } else {
    std::mutex merge_mutex;
    pool->ParallelFor(
        0, batch_starts.size(),
        TauStripeGrain(batch_starts.size(), pool->thread_count()),
        [&](size_t begin, size_t end) {
          std::vector<std::pair<size_t, RankedWeight>> local;
          QueryStats local_stats;
          scan_batches(begin, end, local,
                       stats != nullptr ? &local_stats : nullptr);
          std::lock_guard<std::mutex> lock(merge_mutex);
          found.insert(found.end(), local.begin(), local.end());
          if (stats != nullptr) *stats += local_stats;
        });
  }
  return found;
}

std::vector<ReverseTopKResult> GirIndex::TauReverseTopKBatch(
    std::span<const ConstRow> rows, size_t k, ThreadPool* pool,
    QueryStats* stats) const {
  const TauIndex& tau = *tau_;
  const size_t num_queries = rows.size();
  const size_t m = weights_->size();
  std::vector<ReverseTopKResult> results(num_queries);
  if (num_queries == 0 || k == 0 || m == 0) return results;

  if (!tau.CanAnswerTopK(k)) {
    // k in the band (k_cap, |P|]: τ_k is not materialized, but the
    // histogram brackets every rank. lo >= k settles a weight out and
    // hi < k settles it in; only the straddling slots pay a blocked scan.
    const int64_t kk = static_cast<int64_t>(k);
    std::vector<uint8_t> member(num_queries * m, 0);
    std::vector<int64_t> thresholds(num_queries * m, 0);
    TauBracketPass(tau, rows, pool, stats,
                   [&](size_t begin, size_t end, const double* scores) {
                     for (size_t qi = 0; qi < num_queries; ++qi) {
                       for (size_t w = begin; w < end; ++w) {
                         const size_t s = qi * m + w;
                         if (tau.RankLowerBound(w, scores[s]) >= kk) continue;
                         if (tau.BoundRank(w, scores[s]).hi < kk) {
                           member[s] = 1;
                         } else {
                           thresholds[s] = kk;
                         }
                       }
                     }
                   });
    for (const auto& [qi, entry] : MaskedFallback(
             rows, thresholds, /*heaps=*/nullptr, k, pool, stats)) {
      member[qi * m + entry.weight_id] = 1;
    }
    for (size_t qi = 0; qi < num_queries; ++qi) {
      for (size_t w = 0; w < m; ++w) {
        if (member[qi * m + w] != 0) {
          results[qi].push_back(static_cast<VectorId>(w));
        }
      }
    }
    return results;
  }

  std::vector<const double*> qrows(num_queries);
  for (size_t qi = 0; qi < num_queries; ++qi) qrows[qi] = rows[qi].data();
  if (pool == nullptr || pool->thread_count() <= 1 || m < 1024) {
    tau.TopKBatchRange(qrows.data(), num_queries, k, 0, m, results.data());
  } else {
    std::mutex merge_mutex;
    pool->ParallelFor(
        0, m, TauStripeGrain(m, pool->thread_count()),
        [&](size_t begin, size_t end) {
          std::vector<ReverseTopKResult> local(num_queries);
          tau.TopKBatchRange(qrows.data(), num_queries, k, begin, end,
                             local.data());
          std::lock_guard<std::mutex> lock(merge_mutex);
          for (size_t qi = 0; qi < num_queries; ++qi) {
            results[qi].insert(results[qi].end(), local[qi].begin(),
                               local[qi].end());
          }
        });
    for (size_t qi = 0; qi < num_queries; ++qi) {
      std::sort(results[qi].begin(), results[qi].end());
    }
  }
  if (stats != nullptr) {
    stats->weights_evaluated += m * num_queries;
    stats->inner_products += m * num_queries;
    stats->multiplications += m * num_queries * dim();
  }
  return results;
}

std::vector<ReverseKRanksResult> GirIndex::TauReverseKRanksBatch(
    std::span<const ConstRow> rows, size_t k, ThreadPool* pool,
    QueryStats* stats) const {
  const TauIndex& tau = *tau_;
  const size_t num_queries = rows.size();
  const size_t m = weights_->size();
  std::vector<ReverseKRanksResult> results(num_queries);
  if (num_queries == 0 || k == 0 || m == 0) return results;

  // Pass 1: the τ vector + histogram bracket each (query, weight) rank.
  std::vector<int64_t> lo(num_queries * m);
  std::vector<int64_t> hi(num_queries * m);
  TauBracketPass(tau, rows, pool, stats,
                 [&](size_t begin, size_t end, const double* scores) {
                   for (size_t qi = 0; qi < num_queries; ++qi) {
                     for (size_t w = begin; w < end; ++w) {
                       const TauRankBounds bounds =
                           tau.BoundRank(w, scores[qi * m + w]);
                       lo[qi * m + w] = bounds.lo;
                       hi[qi * m + w] = bounds.hi;
                     }
                   }
                 });

  // Per query, the k-th smallest upper bound caps the answer's k-th rank:
  // at least k weights have rank <= kth_hi, so a weight with lo > kth_hi
  // is provably outside the answer (even under (rank, id) tie-breaking,
  // which only admits rank <= the k-th smallest rank <= kth_hi). Exactly
  // bracketed ranks seed the heap; the rest are scanned with threshold
  // cap + 1, so every rank that could still enter the heap — including
  // (rank, id) ties at the cap — comes back exact.
  std::vector<std::vector<RankedWeight>> heaps(num_queries);
  std::vector<int64_t> thresholds(num_queries * m, 0);
  std::vector<int64_t> tmp;
  for (size_t qi = 0; qi < num_queries; ++qi) {
    const int64_t* qlo = lo.data() + qi * m;
    const int64_t* qhi = hi.data() + qi * m;
    int64_t kth_hi = static_cast<int64_t>(points_->size());
    if (m > k) {
      tmp.assign(qhi, qhi + m);
      std::nth_element(tmp.begin(), tmp.begin() + (k - 1), tmp.end());
      kth_hi = tmp[k - 1];
    }
    std::vector<RankedWeight>& heap = heaps[qi];
    heap.reserve(k + 1);
    for (size_t w = 0; w < m; ++w) {
      if (qlo[w] <= kth_hi && qlo[w] == qhi[w]) {
        PushRankedWeight(heap, k,
                         RankedWeight{static_cast<VectorId>(w), qlo[w]});
      }
    }
    const int64_t cap =
        heap.size() == k ? std::min(kth_hi, heap.front().rank) : kth_hi;
    for (size_t w = 0; w < m; ++w) {
      if (qlo[w] <= kth_hi && qlo[w] != qhi[w]) {
        thresholds[qi * m + w] = cap + 1;
      }
    }
  }

  // Pass 2: the shared masked fallback over the open slots only.
  for (const auto& [qi, entry] :
       MaskedFallback(rows, thresholds, &heaps, k, pool, stats)) {
    PushRankedWeight(heaps[qi], k, entry);
  }
  for (size_t qi = 0; qi < num_queries; ++qi) {
    std::sort(heaps[qi].begin(), heaps[qi].end());
    results[qi] = std::move(heaps[qi]);
  }
  return results;
}

size_t GirIndex::MemoryBytes() const {
  size_t bytes = grid_.TableBytes() + point_cells_.MemoryBytes() +
                 weight_cells_.MemoryBytes();
  if (tau_ != nullptr) bytes += tau_->MemoryBytes();
  if (bmx_ != nullptr) bytes += bmx_->MemoryBytes();
  return bytes;
}

}  // namespace gir
