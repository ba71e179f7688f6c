#include "grid/parallel_gir.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

#include "core/domin.h"
#include "grid/blocked_scan.h"
#include "grid/gin_topk.h"

namespace gir {

namespace {

/// Lowers `bound` to `candidate` if smaller (atomic CAS-min).
void AtomicMin(std::atomic<int64_t>& bound, int64_t candidate) {
  int64_t current = bound.load(std::memory_order_relaxed);
  while (candidate < current &&
         !bound.compare_exchange_weak(current, candidate,
                                      std::memory_order_relaxed)) {
  }
}

size_t StripeGrain(size_t total, size_t threads) {
  // A few stripes per worker balances load without shredding the Domin
  // buffer's usefulness within a stripe.
  const size_t target_stripes = std::max<size_t>(1, threads * 4);
  return std::max<size_t>(1, (total + target_stripes - 1) / target_stripes);
}

/// Stripe grain for the blocked engine: a whole number of weight batches,
/// so every stripe runs full-width batches against each point block.
size_t BatchStripeGrain(size_t total, size_t threads, size_t batch) {
  const size_t grain = StripeGrain(total, threads);
  return (grain + batch - 1) / batch * batch;
}

ReverseTopKResult ParallelBlockedReverseTopK(const GirIndex& index,
                                             ConstRow q, size_t k,
                                             ThreadPool& pool,
                                             QueryStats* stats) {
  const Dataset& weights = index.weights();
  const int64_t threshold = static_cast<int64_t>(k);
  BlockedScanner scanner(index.points(), index.point_cells(), weights,
                         index.weight_cells(), index.grid(),
                         index.options().bound_mode, {},
                         index.block_max().get());
  // The dominator pass runs once, serially; every stripe shares the
  // read-only context. With the full dominator set known upfront, the
  // >= k abort is decided before any weight is scanned.
  const BlockedScanner::QueryContext qctx =
      scanner.MakeQueryContext(q, index.options().use_domin);
  if (index.options().use_domin && qctx.dominator_count >= threshold) {
    return {};
  }

  std::mutex merge_mutex;
  ReverseTopKResult result;
  pool.ParallelFor(
      0, weights.size(),
      BatchStripeGrain(weights.size(), pool.thread_count(),
                       scanner.weight_batch()),
      [&](size_t begin, size_t end) {
        BlockedScratch scratch;
        std::vector<int64_t> thresholds;
        std::vector<int64_t> ranks;
        QueryStats local_stats;
        ReverseTopKResult local;
        for (size_t b = begin; b < end; b += scanner.weight_batch()) {
          const size_t e = std::min(b + scanner.weight_batch(), end);
          thresholds.assign(e - b, threshold);
          ranks.resize(e - b);
          scanner.RankBatch(q, qctx, b, e, thresholds.data(), ranks.data(),
                            scratch, stats != nullptr ? &local_stats : nullptr);
          for (size_t i = 0; i < e - b; ++i) {
            if (ranks[i] != kRankOverThreshold) {
              local.push_back(static_cast<VectorId>(b + i));
            }
          }
        }
        std::lock_guard<std::mutex> lock(merge_mutex);
        result.insert(result.end(), local.begin(), local.end());
        if (stats != nullptr) *stats += local_stats;
      });

  if (stats != nullptr) stats->weights_evaluated += weights.size();
  std::sort(result.begin(), result.end());
  return result;
}

ReverseKRanksResult ParallelBlockedReverseKRanks(const GirIndex& index,
                                                 ConstRow q, size_t k,
                                                 ThreadPool& pool,
                                                 QueryStats* stats) {
  const Dataset& points = index.points();
  const Dataset& weights = index.weights();
  BlockedScanner scanner(points, index.point_cells(), weights,
                         index.weight_cells(), index.grid(),
                         index.options().bound_mode, {},
                         index.block_max().get());
  const BlockedScanner::QueryContext qctx =
      scanner.MakeQueryContext(q, index.options().use_domin);

  // Shared monotone bound on the final k-th rank, as in the
  // weight-at-a-time parallel driver; refreshed at batch granularity. The
  // +1 keeps rank-tying entries alive for the (rank, id) merge.
  const int64_t no_bound = static_cast<int64_t>(points.size());
  std::atomic<int64_t> global_bound{no_bound};

  std::mutex merge_mutex;
  std::vector<RankedWeight> merged;
  pool.ParallelFor(
      0, weights.size(),
      BatchStripeGrain(weights.size(), pool.thread_count(),
                       scanner.weight_batch()),
      [&](size_t begin, size_t end) {
        BlockedScratch scratch;
        std::vector<int64_t> thresholds;
        std::vector<int64_t> ranks;
        QueryStats local_stats;
        std::vector<RankedWeight> heap;
        heap.reserve(k + 1);
        for (size_t b = begin; b < end; b += scanner.weight_batch()) {
          const size_t e = std::min(b + scanner.weight_batch(), end);
          const int64_t shared = global_bound.load(std::memory_order_relaxed);
          const int64_t local_cap =
              heap.size() == k ? heap.front().rank : no_bound;
          const int64_t threshold = std::min(shared, local_cap) + 1;
          thresholds.assign(e - b, threshold);
          ranks.resize(e - b);
          scanner.RankBatch(q, qctx, b, e, thresholds.data(), ranks.data(),
                            scratch, stats != nullptr ? &local_stats : nullptr);
          for (size_t i = 0; i < e - b; ++i) {
            if (ranks[i] == kRankOverThreshold) continue;
            RankedWeight entry{static_cast<VectorId>(b + i), ranks[i]};
            if (heap.size() < k) {
              heap.push_back(entry);
              std::push_heap(heap.begin(), heap.end());
            } else if (entry < heap.front()) {
              std::pop_heap(heap.begin(), heap.end());
              heap.back() = entry;
              std::push_heap(heap.begin(), heap.end());
            }
          }
          if (heap.size() == k) AtomicMin(global_bound, heap.front().rank);
        }
        std::lock_guard<std::mutex> lock(merge_mutex);
        merged.insert(merged.end(), heap.begin(), heap.end());
        if (stats != nullptr) *stats += local_stats;
      });

  if (stats != nullptr) stats->weights_evaluated += weights.size();
  const size_t take = std::min(k, merged.size());
  std::partial_sort(merged.begin(), merged.begin() + take, merged.end());
  merged.resize(take);
  return merged;
}

/// Builds the rows + query contexts for a query block, striping the
/// O(n·d) dominator passes over the pool's workers (each query's context
/// is independent, so the result is identical to the serial loop).
void MakeQueryContexts(const GirIndex& index, const BlockedScanner& scanner,
                       const Dataset& queries, ThreadPool& pool,
                       std::vector<ConstRow>& rows,
                       std::vector<BlockedScanner::QueryContext>& qctxs) {
  const size_t num_queries = queries.size();
  rows = QueryRows(queries);
  qctxs.resize(num_queries);
  pool.ParallelFor(0, num_queries, 1, [&](size_t begin, size_t end) {
    for (size_t qi = begin; qi < end; ++qi) {
      qctxs[qi] =
          scanner.MakeQueryContext(rows[qi], index.options().use_domin);
    }
  });
}

std::vector<ReverseTopKResult> ParallelBlockedReverseTopKBatch(
    const GirIndex& index, const Dataset& queries, size_t k, ThreadPool& pool,
    QueryStats* stats) {
  const Dataset& weights = index.weights();
  const size_t num_queries = queries.size();
  std::vector<ReverseTopKResult> results(num_queries);
  const int64_t threshold = static_cast<int64_t>(k);
  BlockedScanner scanner(index.points(), index.point_cells(), weights,
                         index.weight_cells(), index.grid(),
                         index.options().bound_mode, {},
                         index.block_max().get());
  std::vector<ConstRow> rows;
  std::vector<BlockedScanner::QueryContext> qctxs;
  MakeQueryContexts(index, scanner, queries, pool, rows, qctxs);
  std::vector<uint8_t> alive(num_queries, 1);
  size_t alive_count = 0;
  for (size_t qi = 0; qi < num_queries; ++qi) {
    if (index.options().use_domin &&
        qctxs[qi].dominator_count >= threshold) {
      alive[qi] = 0;  // >= k dominators: empty answer, no scans needed
    } else {
      ++alive_count;
    }
  }
  if (alive_count == 0) return results;

  std::mutex merge_mutex;
  pool.ParallelFor(
      0, weights.size(),
      BatchStripeGrain(weights.size(), pool.thread_count(),
                       scanner.weight_batch()),
      [&](size_t begin, size_t end) {
        BlockedScratch scratch;
        std::vector<int64_t> thresholds;
        std::vector<int64_t> ranks;
        QueryStats local_stats;
        std::vector<ReverseTopKResult> local(num_queries);
        for (size_t b = begin; b < end; b += scanner.weight_batch()) {
          const size_t e = std::min(b + scanner.weight_batch(), end);
          const size_t bl = e - b;
          thresholds.resize(num_queries * bl);
          ranks.resize(num_queries * bl);
          for (size_t qi = 0; qi < num_queries; ++qi) {
            // Threshold 0 masks a settled query's slots at no scan cost.
            std::fill_n(thresholds.begin() + qi * bl, bl,
                        alive[qi] != 0 ? threshold : 0);
          }
          scanner.PrepareBatch(b, e, scratch);
          scanner.RankPreparedMulti(
              rows.data(), qctxs.data(), num_queries, b, e, thresholds.data(),
              ranks.data(), scratch,
              stats != nullptr ? &local_stats : nullptr);
          for (size_t qi = 0; qi < num_queries; ++qi) {
            if (alive[qi] == 0) continue;
            for (size_t i = 0; i < bl; ++i) {
              if (ranks[qi * bl + i] != kRankOverThreshold) {
                local[qi].push_back(static_cast<VectorId>(b + i));
              }
            }
          }
        }
        std::lock_guard<std::mutex> lock(merge_mutex);
        for (size_t qi = 0; qi < num_queries; ++qi) {
          results[qi].insert(results[qi].end(), local[qi].begin(),
                             local[qi].end());
        }
        if (stats != nullptr) *stats += local_stats;
      });

  if (stats != nullptr) {
    stats->weights_evaluated += weights.size() * alive_count;
  }
  for (size_t qi = 0; qi < num_queries; ++qi) {
    std::sort(results[qi].begin(), results[qi].end());
  }
  return results;
}

std::vector<ReverseKRanksResult> ParallelBlockedReverseKRanksBatch(
    const GirIndex& index, const Dataset& queries, size_t k, ThreadPool& pool,
    QueryStats* stats) {
  const Dataset& points = index.points();
  const Dataset& weights = index.weights();
  const size_t num_queries = queries.size();
  std::vector<ReverseKRanksResult> results(num_queries);
  BlockedScanner scanner(points, index.point_cells(), weights,
                         index.weight_cells(), index.grid(),
                         index.options().bound_mode, {},
                         index.block_max().get());
  std::vector<ConstRow> rows;
  std::vector<BlockedScanner::QueryContext> qctxs;
  MakeQueryContexts(index, scanner, queries, pool, rows, qctxs);

  // One shared monotone k-th-rank bound per query, refreshed at batch
  // granularity exactly like the single-query driver; the +1 keeps
  // rank-tying entries alive for the per-query (rank, id) merge.
  const int64_t no_bound = static_cast<int64_t>(points.size());
  std::vector<std::atomic<int64_t>> global_bounds(num_queries);
  for (auto& bound : global_bounds) {
    bound.store(no_bound, std::memory_order_relaxed);
  }

  std::mutex merge_mutex;
  std::vector<std::vector<RankedWeight>> merged(num_queries);
  pool.ParallelFor(
      0, weights.size(),
      BatchStripeGrain(weights.size(), pool.thread_count(),
                       scanner.weight_batch()),
      [&](size_t begin, size_t end) {
        BlockedScratch scratch;
        std::vector<int64_t> thresholds;
        std::vector<int64_t> ranks;
        QueryStats local_stats;
        std::vector<std::vector<RankedWeight>> heaps(num_queries);
        for (auto& heap : heaps) heap.reserve(k + 1);
        for (size_t b = begin; b < end; b += scanner.weight_batch()) {
          const size_t e = std::min(b + scanner.weight_batch(), end);
          const size_t bl = e - b;
          thresholds.resize(num_queries * bl);
          ranks.resize(num_queries * bl);
          for (size_t qi = 0; qi < num_queries; ++qi) {
            const int64_t shared =
                global_bounds[qi].load(std::memory_order_relaxed);
            const int64_t local_cap =
                heaps[qi].size() == k ? heaps[qi].front().rank : no_bound;
            std::fill_n(thresholds.begin() + qi * bl, bl,
                        std::min(shared, local_cap) + 1);
          }
          scanner.PrepareBatch(b, e, scratch);
          scanner.RankPreparedMulti(
              rows.data(), qctxs.data(), num_queries, b, e, thresholds.data(),
              ranks.data(), scratch,
              stats != nullptr ? &local_stats : nullptr);
          for (size_t qi = 0; qi < num_queries; ++qi) {
            for (size_t i = 0; i < bl; ++i) {
              if (ranks[qi * bl + i] == kRankOverThreshold) continue;
              RankedWeight entry{static_cast<VectorId>(b + i),
                                 ranks[qi * bl + i]};
              auto& heap = heaps[qi];
              if (heap.size() < k) {
                heap.push_back(entry);
                std::push_heap(heap.begin(), heap.end());
              } else if (entry < heap.front()) {
                std::pop_heap(heap.begin(), heap.end());
                heap.back() = entry;
                std::push_heap(heap.begin(), heap.end());
              }
            }
            if (heaps[qi].size() == k) {
              AtomicMin(global_bounds[qi], heaps[qi].front().rank);
            }
          }
        }
        std::lock_guard<std::mutex> lock(merge_mutex);
        for (size_t qi = 0; qi < num_queries; ++qi) {
          merged[qi].insert(merged[qi].end(), heaps[qi].begin(),
                            heaps[qi].end());
        }
        if (stats != nullptr) *stats += local_stats;
      });

  if (stats != nullptr) {
    stats->weights_evaluated += weights.size() * num_queries;
  }
  for (size_t qi = 0; qi < num_queries; ++qi) {
    const size_t take = std::min(k, merged[qi].size());
    std::partial_sort(merged[qi].begin(), merged[qi].begin() + take,
                      merged[qi].end());
    merged[qi].resize(take);
    results[qi] = std::move(merged[qi]);
  }
  return results;
}

}  // namespace

ReverseTopKResult ParallelReverseTopK(const GirIndex& index, ConstRow q,
                                      size_t k, ThreadPool& pool,
                                      QueryStats* stats) {
  if (k == 0 || index.weights().empty()) return {};
  if (index.options().scan_mode == ScanMode::kTauIndex &&
      index.tau_index() != nullptr) {
    return index.TauReverseTopKBatch({&q, 1}, k, &pool, stats)[0];
  }
  if (index.options().scan_mode != ScanMode::kWeightAtATime) {
    return ParallelBlockedReverseTopK(index, q, k, pool, stats);
  }
  const Dataset& points = index.points();
  const Dataset& weights = index.weights();
  const int64_t threshold = static_cast<int64_t>(k);
  GinContext ctx{&points, &index.point_cells(), &index.grid(),
                 index.options().bound_mode};

  std::mutex merge_mutex;
  ReverseTopKResult result;
  std::atomic<bool> abort_empty{false};  // >= k dominators found

  pool.ParallelFor(
      0, weights.size(), StripeGrain(weights.size(), pool.thread_count()),
      [&](size_t begin, size_t end) {
        if (abort_empty.load(std::memory_order_relaxed)) return;
        DominBuffer domin(points.size());
        DominBuffer* domin_ptr =
            index.options().use_domin ? &domin : nullptr;
        GinScratch scratch;
        QueryStats local_stats;
        ReverseTopKResult local;
        for (size_t i = begin; i < end; ++i) {
          const int64_t rank =
              GInTopK(ctx, weights.row(i), index.weight_cells().row(i), q,
                      threshold, domin_ptr, scratch,
                      stats != nullptr ? &local_stats : nullptr);
          // Counted per weight (not per stripe) so aborted queries report
          // the scans that actually ran.
          local_stats.weights_evaluated += 1;
          if (rank != kRankOverThreshold) {
            local.push_back(static_cast<VectorId>(i));
          }
          if (domin_ptr != nullptr && domin_ptr->count() >= threshold) {
            // Algorithm 2 lines 7-8: q is dominated by >= k points, so the
            // whole query's answer is empty regardless of stripe.
            abort_empty.store(true, std::memory_order_relaxed);
            break;
          }
        }
        std::lock_guard<std::mutex> lock(merge_mutex);
        result.insert(result.end(), local.begin(), local.end());
        if (stats != nullptr) *stats += local_stats;
      });

  if (abort_empty.load(std::memory_order_relaxed)) return {};
  std::sort(result.begin(), result.end());
  return result;
}

ReverseKRanksResult ParallelReverseKRanks(const GirIndex& index, ConstRow q,
                                          size_t k, ThreadPool& pool,
                                          QueryStats* stats) {
  const Dataset& points = index.points();
  const Dataset& weights = index.weights();
  if (k == 0 || weights.empty()) return {};
  if (index.options().scan_mode == ScanMode::kTauIndex &&
      index.tau_index() != nullptr) {
    return index.TauReverseKRanksBatch({&q, 1}, k, &pool, stats)[0];
  }
  if (index.options().scan_mode != ScanMode::kWeightAtATime) {
    return ParallelBlockedReverseKRanks(index, q, k, pool, stats);
  }
  GinContext ctx{&points, &index.point_cells(), &index.grid(),
                 index.options().bound_mode};

  // Shared upper bound on the final k-th best rank. Once any worker holds
  // k entries of rank <= r, the answer's k-th rank is <= r, so scans may
  // be capped at r + 1 (keeping rank-r ties alive for the merge).
  const int64_t no_bound = static_cast<int64_t>(points.size());
  std::atomic<int64_t> global_bound{no_bound};

  std::mutex merge_mutex;
  std::vector<RankedWeight> merged;
  pool.ParallelFor(
      0, weights.size(), StripeGrain(weights.size(), pool.thread_count()),
      [&](size_t begin, size_t end) {
        DominBuffer domin(points.size());
        DominBuffer* domin_ptr =
            index.options().use_domin ? &domin : nullptr;
        GinScratch scratch;
        QueryStats local_stats;
        // Private max-heap on (rank, id).
        std::vector<RankedWeight> heap;
        heap.reserve(k + 1);
        for (size_t i = begin; i < end; ++i) {
          const int64_t shared = global_bound.load(std::memory_order_relaxed);
          const int64_t local_cap =
              heap.size() == k ? heap.front().rank : no_bound;
          const int64_t threshold = std::min(shared, local_cap) + 1;
          const int64_t rank =
              GInTopK(ctx, weights.row(i), index.weight_cells().row(i), q,
                      threshold, domin_ptr, scratch,
                      stats != nullptr ? &local_stats : nullptr);
          if (rank == kRankOverThreshold) continue;
          RankedWeight entry{static_cast<VectorId>(i), rank};
          if (heap.size() < k) {
            heap.push_back(entry);
            std::push_heap(heap.begin(), heap.end());
          } else if (entry < heap.front()) {
            std::pop_heap(heap.begin(), heap.end());
            heap.back() = entry;
            std::push_heap(heap.begin(), heap.end());
          }
          if (heap.size() == k) AtomicMin(global_bound, heap.front().rank);
        }
        std::lock_guard<std::mutex> lock(merge_mutex);
        merged.insert(merged.end(), heap.begin(), heap.end());
        if (stats != nullptr) *stats += local_stats;
      });

  if (stats != nullptr) stats->weights_evaluated += weights.size();
  const size_t take = std::min(k, merged.size());
  std::partial_sort(merged.begin(), merged.begin() + take, merged.end());
  merged.resize(take);
  return merged;
}

std::vector<ReverseTopKResult> ParallelReverseTopKBatch(
    const GirIndex& index, const Dataset& queries, size_t k, ThreadPool& pool,
    QueryStats* stats) {
  if (queries.size() == 0) return {};
  if (k == 0 || index.weights().empty()) {
    return std::vector<ReverseTopKResult>(queries.size());
  }
  if (index.options().scan_mode == ScanMode::kTauIndex &&
      index.tau_index() != nullptr) {
    return index.TauReverseTopKBatch(QueryRows(queries), k, &pool, stats);
  }
  // The batched entry points always run the blocked engine outside τ —
  // the same engine selection as GirIndex::ReverseTopKBatch.
  return ParallelBlockedReverseTopKBatch(index, queries, k, pool, stats);
}

std::vector<ReverseKRanksResult> ParallelReverseKRanksBatch(
    const GirIndex& index, const Dataset& queries, size_t k, ThreadPool& pool,
    QueryStats* stats) {
  const size_t num_queries = queries.size();
  if (num_queries == 0) return {};
  if (k == 0 || index.weights().empty()) {
    return std::vector<ReverseKRanksResult>(num_queries);
  }
  if (index.options().scan_mode == ScanMode::kTauIndex &&
      index.tau_index() != nullptr) {
    return index.TauReverseKRanksBatch(QueryRows(queries), k, &pool, stats);
  }
  return ParallelBlockedReverseKRanksBatch(index, queries, k, pool, stats);
}

}  // namespace gir
