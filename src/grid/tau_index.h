#ifndef GIR_GRID_TAU_INDEX_H_
#define GIR_GRID_TAU_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/counters.h"
#include "core/dataset.h"
#include "core/query_types.h"
#include "core/status.h"
#include "core/types.h"

namespace gir {

/// Build knobs of the τ-index (thresholds + score histograms per weight).
struct TauIndexOptions {
  /// Largest k the threshold vector answers exactly: τ_1(w)..τ_K(w) are
  /// materialized per weight, K = min(k_max, |P|). Reverse top-k for
  /// k <= K is a single O(|W|·d) pass; larger k (up to |P|) falls back to
  /// the scan engines.
  size_t k_max = 64;
  /// Fixed-width score-histogram bins per weight over
  /// [min_score(w), max_score(w)]; prefix-summed at build. More bins make
  /// the reverse k-ranks bounds tighter at 4 bytes per (weight, bin).
  size_t bins = 64;
  /// Build parallelism: worker threads striping over W. 0 uses
  /// hardware_concurrency(); 1 builds on the calling thread.
  size_t threads = 0;
};

/// Per-weight rank bounds derived from the τ vector and the score
/// histogram: lo <= rank(w, q) <= hi, exact iff lo == hi.
struct TauRankBounds {
  int64_t lo = 0;
  int64_t hi = 0;
  bool exact() const { return lo == hi; }
};

/// The preference-side τ-index. Where the scan engines re-derive every
/// rank(w, q) from the product set per query — O(|W|·|P|) work — this
/// index pays the P-side cost once at build time: all of P is scored
/// under all of W with the SIMD kernels of core/simd.h, and per weight it
/// materializes
///   * the exact order statistics τ_1(w) <= ... <= τ_K(w) of the score
///     multiset {f_w(p) : p in P} (K = min(k_max, |P|)), and
///   * a prefix-summed fixed-width histogram of the scores over
///     [τ_1(w), max_score(w)].
///
/// Under the library's strict `<` rank convention,
///     rank(w, q) < k  ⟺  f_w(q) <= τ_k(w),
/// so reverse top-k for k <= K is a single vectorized pass over W — score
/// f_w(q) with AccumulateScaledDoubles over the column-major mirror of W,
/// compare against the τ_k column — with no product scan at all, and the
/// answer is exact (τ_k is an exact double, the comparison has no rounding
/// slack). The histogram brackets rank(w, q) for reverse k-ranks so that
/// only an unresolved band of weights needs a scan (DESIGN.md §10).
///
/// Scores are accumulated dimension-at-a-time with an unfused
/// multiply-then-add, so every score is bit-identical to the scalar
/// InnerProduct the naive oracle and the scan engines compute (in the
/// default build; see DESIGN.md §10 on -march=native contraction).
///
/// The index is self-contained: it copies what it needs from W at build
/// time (the column-major mirror), so the datasets may be released after
/// Build — only loading (index_io) needs W again to rebuild the mirror.
class TauIndex {
 public:
  /// Scores |P| x |W| pairs (striped over `options.threads` workers) and
  /// materializes the thresholds and histograms. InvalidArgument on empty
  /// P, dimension mismatch, k_max == 0 or bins < 2.
  static Result<TauIndex> Build(const Dataset& points, const Dataset& weights,
                                const TauIndexOptions& options = {});

  /// Reassembles an index from persisted components (grid/index_io.h).
  /// `weights` must be the preference set the index was built from (size
  /// and dimension are validated; the column mirror is rebuilt from it).
  static Result<TauIndex> FromParts(const Dataset& weights, size_t num_points,
                                    size_t k_cap, size_t bins,
                                    std::vector<double> tau,
                                    std::vector<double> score_max,
                                    std::vector<uint32_t> hist_prefix);

  /// True if the τ vector answers reverse top-k for this k exactly:
  /// k == 0 (empty answer), k <= k_cap() (threshold test), or k > |P|
  /// (every rank is < k). In the remaining band k_cap() < k <= |P|,
  /// RankLowerBound/BoundRank settle most weights and a scan engine
  /// decides the rest (GirIndex, DESIGN.md §10).
  bool CanAnswerTopK(size_t k) const {
    return k == 0 || k <= k_cap_ || k > num_points_;
  }

  /// Multi-query scoring: scores[r * stride + i] = f_{w_begin+i}(q_r) for
  /// each of the `num_queries` rows in `queries`, one register-tiled sweep
  /// over the column mirror of W (core/simd.h ScoreTileColumns) so every
  /// weight column loaded feeds the whole query block. Bit-identical to
  /// InnerProduct(w, q).
  void ScoreBlock(const double* const* queries, size_t num_queries,
                  size_t w_begin, size_t w_end, double* scores,
                  size_t stride) const;

  /// Reverse top-k for a query block: resolves every row against
  /// weights [w_begin, w_end) chunk by chunk — one tiled scoring sweep,
  /// then the τ_k membership test per query row — appending qualifying
  /// ids to results[r] in ascending order. Precondition: CanAnswerTopK(k).
  void TopKBatchRange(const double* const* queries, size_t num_queries,
                      size_t k, size_t w_begin, size_t w_end,
                      ReverseTopKResult* results) const;

  /// Brackets rank(w, q) given score = f_w(q): exact (lo == hi) whenever
  /// rank < k_cap() or the histogram pins it; sound in all cases.
  TauRankBounds BoundRank(size_t w, double score) const;

  /// O(1) lower bound on rank(w, q) from the histogram alone — the prefix
  /// count of full bins strictly below `score`, with no τ-column binary
  /// search. Looser than BoundRank().lo but touches only w-contiguous
  /// rows, so a pass over all weights streams; the dynamic index's
  /// correction-free reject test (DESIGN.md §12) is built on it.
  int64_t RankLowerBound(size_t w, double score) const;

  /// τ_k(w), the k-th smallest product score under w. 1 <= k <= k_cap().
  double Threshold(size_t w, size_t k) const {
    return tau_[(k - 1) * num_weights_ + w];
  }

  size_t dim() const { return dim_; }
  size_t num_points() const { return num_points_; }
  size_t num_weights() const { return num_weights_; }
  size_t k_cap() const { return k_cap_; }
  size_t bins() const { return bins_; }

  /// Raw component views for serialization (grid/index_io.cc).
  const std::vector<double>& tau() const { return tau_; }
  const std::vector<double>& score_max() const { return score_max_; }
  const std::vector<uint32_t>& hist_prefix() const { return hist_prefix_; }

  /// Bytes of thresholds + histograms + the W column mirror.
  size_t MemoryBytes() const;

 private:
  TauIndex() = default;

  /// Builds the column-major double mirror of W the scoring kernels read.
  void BuildWeightColumns(const Dataset& weights);

  /// Reusable per-stripe buffers for Materialize: the per-score bin
  /// vector, the extra partial histograms that break the scatter's
  /// store-to-load dependency, and the histogram-guided selection band.
  struct MaterializeScratch {
    std::vector<uint32_t> bins;
    std::vector<uint32_t> partial;
    std::vector<double> band;
  };

  /// Thresholds/histogram extraction for one weight, given its n scores.
  void Materialize(size_t w, const double* scores,
                   MaterializeScratch& scratch);

  size_t dim_ = 0;
  size_t num_points_ = 0;
  size_t num_weights_ = 0;
  size_t k_cap_ = 0;
  size_t bins_ = 0;
  /// τ order statistics, k-major: tau_[(k-1) * |W| + w] = τ_k(w). The
  /// k-major layout makes the reverse top-k comparison a contiguous
  /// column, one cache line per 8 weights.
  std::vector<double> tau_;
  /// Per-weight maximum score (the histogram's upper edge; the lower edge
  /// is τ_1(w)).
  std::vector<double> score_max_;
  /// Prefix-summed histograms, weight-major:
  /// hist_prefix_[w * bins + b] = #points whose score bins at <= b.
  std::vector<uint32_t> hist_prefix_;
  /// Column-major mirror of W: wcol_[i * |W| + w] = W[w][i].
  std::vector<double> wcol_;
};

}  // namespace gir

#endif  // GIR_GRID_TAU_INDEX_H_
