#ifndef GIR_GRID_BLOCKED_SCAN_H_
#define GIR_GRID_BLOCKED_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/counters.h"
#include "core/dataset.h"
#include "core/types.h"
#include "grid/approx_vector.h"
#include "grid/block_max.h"
#include "grid/gin_topk.h"
#include "grid/grid_index.h"

namespace gir {

/// Tuning knobs of the blocked scan engine. Defaults target a shared L2:
/// a block's cell rows (block_points * d bytes) stay resident while a
/// batch of weights is evaluated against them, so each point-cell byte is
/// streamed from memory once per `weight_batch` weights instead of once
/// per weight.
struct BlockedScanConfig {
  /// Weights evaluated per pass over a point block (B).
  size_t weight_batch = 16;
  /// Approximate bytes of point cells per block; the per-block point count
  /// is derived as target_block_bytes / d, clamped and rounded to
  /// ApproxVectors::kColumnPad.
  size_t target_block_bytes = 32 * 1024;
};

/// Reusable buffers for BlockedScanner calls (the blocked analogue of
/// GinScratch). Reuse across batches avoids per-batch allocation; the
/// contents are rebuilt on entry.
struct BlockedScratch {
  std::vector<double> lower;         // per-point lower-bound accumulators
  std::vector<double> upper;         // per-point upper-bound accumulators
  std::vector<double> tables;        // per-(weight, dim) bound rows
  std::vector<double> gaps;          // per-weight U-L gap (uniform grids)
  std::vector<double> bound_caps;    // per-weight max |bound| (for margins)
  std::vector<double> query_scores;  // per-weight f_w(q)
  std::vector<double> case1_cut;     // per-weight Case-1 threshold on hi
  std::vector<double> case2_cut;     // per-weight Case-2 threshold on lo
  std::vector<int64_t> rank_acc;     // per-weight running rank
  std::vector<uint32_t> active;      // batch slots still scanning
  std::vector<uint32_t> band;        // Case-3 indices within one block
  // RankPreparedMulti extensions: per-(query, weight) slot liveness and
  // the per-block exact-score cache shared across the query block.
  std::vector<uint8_t> alive;          // slot still scanning
  std::vector<uint32_t> alive_counts;  // per-weight alive-query tally
  std::vector<double> exact;           // cached f_w(p) within one block
  std::vector<uint8_t> exact_valid;    // 1 iff exact[j] is filled
  // Per-(block, weight) bound aggregates, computed once per query batch:
  // the upper-bound histogram (agg_bins is the per-point scratch, agg_hist
  // the prefix-summed counts) lets a slot prove rank >= threshold — or a
  // whole block Case-1/Case-2 — in O(1) instead of classifying bp points.
  std::vector<uint32_t> agg_bins;  // per-point histogram bin scratch
  std::vector<uint32_t> agg_hist;  // hi prefix counts: #points in bins <= b
  std::vector<uint32_t> agg_hist_lo;  // lo prefix counts (BracketRanksMulti)
  // Block-max cursor state (populated only when the scanner carries a
  // BlockMaxIndex): per-(weight, block) score bounds from PrepareBatch and
  // the per-slot thresholds the cursor classifies them against.
  std::vector<double> bmx_lo;    // [bi * num_blocks + b] block lower bounds
  std::vector<double> bmx_hi;    // [bi * num_blocks + b] block upper bounds
  std::vector<double> bmx_caps;  // per-weight block-max bound magnitude cap
  std::vector<double> bmx_cut1;  // take-all threshold on a block's hi
  std::vector<double> bmx_cut2;  // skip-zero threshold on a block's lo
  std::vector<uint8_t> bmx_done;  // slot settled by the cursor (this block)
};

/// The weight-batched, cache-blocked GIR scan engine. Where GInTopK
/// re-streams the whole n×d cell matrix for every weight, this engine
/// inverts the loop nest: points are processed in L2-sized blocks and a
/// batch of B weights is evaluated against each block before moving on.
/// Bounds are accumulated by the SIMD kernels in core/simd.h over the SoA
/// (column-major) cell mirror that ApproxVectors builds at index time.
///
/// Results are identical to the weight-at-a-time scan: classification uses
/// a per-weight BoundMargin slack (grid/bounds.h) taken at a conservative
/// bound magnitude, so it is at least as wide as the serial scan's
/// per-point slack — Case-1/2 decisions stay sound and the (slightly
/// larger) remainder is refined inline with exact inner products, so every
/// returned rank is exactly rank(w, q). A weight whose running rank
/// crosses its threshold
/// is masked out of the batch (reported as kRankOverThreshold) without
/// disturbing the other weights.
///
/// The scanner holds pointers only; the index components must outlive it.
class BlockedScanner {
 public:
  /// `block_max`, when non-null and shaped for this scanner's block size
  /// (same point count, dim and block_points() — see BlockPointsFor), arms
  /// the WAND-style cursor: a block whose quantized score bounds prove
  /// every point counts (or none does) is settled in O(1) without touching
  /// its cells. A mismatched index is ignored, never misused. The verdicts
  /// are proofs, so ranks stay bit-identical to the linear sweep.
  BlockedScanner(const Dataset& points, const ApproxVectors& point_cells,
                 const Dataset& weights, const ApproxVectors& weight_cells,
                 const GridIndex& grid, BoundMode bound_mode,
                 BlockedScanConfig config = {},
                 const BlockMaxIndex* block_max = nullptr);

  /// The scan block size (in points) a scanner over `dim`-dimensional
  /// points derives from `config` — the block_points a BlockMaxIndex must
  /// be built with to attach to that scanner. Exposed so index builders
  /// can construct the skip structure without instantiating a scanner.
  static size_t BlockPointsFor(size_t dim, BlockedScanConfig config = {});

  /// Fewest weights a query must still scan before its dominance pass
  /// (MakeQueryContext with use_domin, O(n·d)) pays for itself. Below
  /// this the bound-filtered scans are cheaper; answers are identical
  /// either way, since the dominance buffer only prunes.
  static constexpr size_t kDominMinWeights = 8;

  /// Per-query precomputed state shared by every weight batch: the full
  /// dominator set of q (Algorithm 1's Domin), found in one O(n·d) pass
  /// and amortized over all |W| scans. Dominated points are skipped by the
  /// scan and pre-counted into every weight's rank — the same facts the
  /// weight-at-a-time scan discovers incrementally.
  struct QueryContext {
    std::vector<uint8_t> dominated;  // 1 byte per point; empty if unused
    int64_t dominator_count = 0;
    /// Dominated-point count per scan block (block_points() points each;
    /// empty iff `dominated` is). Lets RankPreparedMulti's block-aggregate
    /// fast paths account for skipped points without touching the byte
    /// mask.
    std::vector<uint32_t> block_dominated;
  };

  QueryContext MakeQueryContext(ConstRow q, bool use_domin) const;

  /// Builds the per-weight bound state for weights [w_begin, w_end) into
  /// `scratch` (lookup rows for table modes, U-L gaps for uniform
  /// kExactWeight). Split from RankPrepared so multi-query entry points
  /// amortize it across queries.
  void PrepareBatch(size_t w_begin, size_t w_end,
                    BlockedScratch& scratch) const;

  /// Computes rank(w, q) for each prepared weight. ranks[i] receives the
  /// exact rank of weight w_begin+i if it is < thresholds[i], otherwise
  /// kRankOverThreshold — the same contract as GInTopK. Requires a
  /// preceding PrepareBatch(w_begin, w_end, scratch).
  void RankPrepared(ConstRow q, const QueryContext& qctx, size_t w_begin,
                    size_t w_end, const int64_t* thresholds, int64_t* ranks,
                    BlockedScratch& scratch, QueryStats* stats) const;

  /// PrepareBatch + RankPrepared in one call (the single-query path).
  void RankBatch(ConstRow q, const QueryContext& qctx, size_t w_begin,
                 size_t w_end, const int64_t* thresholds, int64_t* ranks,
                 BlockedScratch& scratch, QueryStats* stats) const;

  /// Multi-query analogue of RankPrepared: resolves a whole block of
  /// `num_queries` queries against the prepared weights in one pass over
  /// the point blocks. Each (block, weight) bound accumulation — the
  /// scan's dominant cost — runs once per query *batch* instead of once
  /// per query, and exact scores computed while refining one query's band
  /// are cached and reused by the rest of the block. `queries[r]` /
  /// `qctxs[r]` describe the r-th query; `thresholds` and `ranks` are
  /// row-major num_queries x (w_end - w_begin). ranks[r * batch + i]
  /// receives the exact rank(w_begin+i, q_r) if < thresholds[r * batch +
  /// i], else kRankOverThreshold; a threshold <= qctxs[r].dominator_count
  /// (e.g. 0) masks its slot at no scan cost. Per query, every verdict is
  /// identical to a RankPrepared call with the same thresholds. Requires
  /// a preceding PrepareBatch(w_begin, w_end, scratch).
  void RankPreparedMulti(const ConstRow* queries, const QueryContext* qctxs,
                         size_t num_queries, size_t w_begin, size_t w_end,
                         const int64_t* thresholds, int64_t* ranks,
                         BlockedScratch& scratch, QueryStats* stats) const;

  /// Bounds-only bracketing pre-pass for multi-query k-ranks: writes a
  /// sound bracket lb <= rank(w_begin+i, q_r) <= ub for every slot,
  /// derived purely from the per-(block, weight) bound aggregates (min /
  /// max and 64-bin histograms of the lower and upper bounds) — no
  /// per-point classification and no exact scores. One sweep over all
  /// point blocks costs roughly one bound accumulation per (block,
  /// weight) plus O(1) per slot per block. `lb` / `ub` are row-major with
  /// `row_stride` (entry r * row_stride + i) and are overwritten. A
  /// k-ranks driver uses the k-th smallest ub per query as a sound cap on
  /// the query's final k-th rank: any weight with lb above the cap is
  /// provably outside the answer and can be masked from the exact pass.
  /// Requires a preceding PrepareBatch(w_begin, w_end, scratch).
  void BracketRanksMulti(const ConstRow* queries, const QueryContext* qctxs,
                         size_t num_queries, size_t w_begin, size_t w_end,
                         int64_t* lb, int64_t* ub, size_t row_stride,
                         BlockedScratch& scratch, QueryStats* stats) const;

  size_t weight_batch() const { return config_.weight_batch; }
  size_t block_points() const { return block_points_; }

  /// The block-max index armed at construction, or nullptr if none was
  /// given (or the given one did not match this scanner's geometry).
  const BlockMaxIndex* block_max() const { return bmx_; }

 private:
  const Dataset* points_;
  const ApproxVectors* point_cells_;
  const Dataset* weights_;
  const ApproxVectors* weight_cells_;
  const GridIndex* grid_;
  BoundMode mode_;
  BlockedScanConfig config_;
  size_t block_points_;
  bool uniform_fma_;    // kExactWeight on a uniform partitioner: FMA kernel
  double cell_width_;   // uniform grids: alpha[1] - alpha[0]
  const BlockMaxIndex* bmx_ = nullptr;  // armed skip structure, or null
};

}  // namespace gir

#endif  // GIR_GRID_BLOCKED_SCAN_H_
