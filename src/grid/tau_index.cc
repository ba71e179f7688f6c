#include "grid/tau_index.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "core/simd.h"
#include "core/thread_pool.h"

namespace gir {

namespace {

/// Weights (or points, at build) scored per kernel chunk: small enough
/// that the chunk's accumulators stay L1-resident across the d passes.
constexpr size_t kScoreChunk = 4096;

/// Weight rows scored together per tiled build sweep: each P column value
/// loaded from memory feeds this many accumulator rows, cutting the
/// build's column traffic by the same factor versus one-weight-at-a-time
/// streaming. Two tiles of the 4-row kernel; the group's n-score rows
/// (8 x 100k doubles = 6.4 MB at the quick config) stay L2/L3-resident.
constexpr size_t kBuildWeightGroup = 8;

/// Histogram bin of score `s` for a weight with lower edge `lo` and
/// precomputed inverse width `inv` = bins / (max - min). Only monotonicity
/// in `s` matters for the rank bounds (DESIGN.md §10), and subtraction,
/// multiplication by a positive constant and truncation are all monotone —
/// the bin edges themselves need not be exact. Build and query both bin
/// through this one function, so a score always lands in the same bin.
size_t BinOf(double s, double lo, double inv, size_t bins) {
  const double t = (s - lo) * inv;
  if (!(t > 0.0)) return 0;
  const size_t b = static_cast<size_t>(t);
  return b >= bins ? bins - 1 : b;
}

}  // namespace

Result<TauIndex> TauIndex::Build(const Dataset& points, const Dataset& weights,
                                 const TauIndexOptions& options) {
  if (points.empty()) {
    return Status::InvalidArgument("point set must be non-empty");
  }
  if (points.dim() != weights.dim()) {
    return Status::InvalidArgument(
        "dimension mismatch: points " + std::to_string(points.dim()) +
        " vs weights " + std::to_string(weights.dim()));
  }
  if (options.k_max == 0) {
    return Status::InvalidArgument("tau k_max must be >= 1");
  }
  if (options.bins < 2 || options.bins > (size_t{1} << 20)) {
    return Status::InvalidArgument("tau bins must be in [2, 2^20]");
  }
  const size_t n = points.size();
  const size_t m = weights.size();
  const size_t d = points.dim();

  TauIndex index;
  index.dim_ = d;
  index.num_points_ = n;
  index.num_weights_ = m;
  index.k_cap_ = std::min(options.k_max, n);
  index.bins_ = options.bins;
  index.tau_.resize(index.k_cap_ * m);
  index.score_max_.resize(m);
  index.hist_prefix_.resize(m * index.bins_);
  index.BuildWeightColumns(weights);

  // Transient column-major mirror of P: the build streams each dimension
  // column once per weight *group*, the same SoA shape the blocked scan
  // reads.
  std::vector<double> pcol(n * d);
  for (size_t j = 0; j < n; ++j) {
    ConstRow row = points.row(j);
    for (size_t i = 0; i < d; ++i) pcol[i * n + j] = row[i];
  }

  auto score_stripe = [&](size_t w_begin, size_t w_end) {
    std::vector<double> scores(kBuildWeightGroup * n);
    MaterializeScratch scratch;
    const double* rows[kBuildWeightGroup];
    for (size_t g0 = w_begin; g0 < w_end; g0 += kBuildWeightGroup) {
      const size_t gs = std::min(kBuildWeightGroup, w_end - g0);
      for (size_t g = 0; g < gs; ++g) rows[g] = weights.row(g0 + g).data();
      // One register-tiled sweep scores the whole weight group against
      // every point: f_w(p) accumulated dimension-at-a-time in ascending
      // order — bit-identical to InnerProduct(w, p).
      simd::ScoreTileColumns(pcol.data(), n, n, rows, gs, d, scores.data(),
                             n);
      for (size_t g = 0; g < gs; ++g) {
        index.Materialize(g0 + g, scores.data() + g * n, scratch);
      }
    }
  };

  if (options.threads == 1 || m <= 1) {
    score_stripe(0, m);
  } else {
    ThreadPool pool(options.threads);
    const size_t stripes = std::max<size_t>(1, pool.thread_count() * 4);
    const size_t grain = std::max<size_t>(1, (m + stripes - 1) / stripes);
    pool.ParallelFor(0, m, grain, score_stripe);
  }
  return index;
}

void TauIndex::BuildWeightColumns(const Dataset& weights) {
  const size_t m = num_weights_;
  wcol_.resize(dim_ * m);
  for (size_t w = 0; w < m; ++w) {
    ConstRow row = weights.row(w);
    for (size_t i = 0; i < dim_; ++i) wcol_[i * m + w] = row[i];
  }
}

void TauIndex::Materialize(size_t w, const double* scores,
                           MaterializeScratch& scratch) {
  const size_t n = num_points_;
  const size_t m = num_weights_;
  double mn;
  double mx;
  simd::MinMaxDoubles(scores, n, &mn, &mx);
  score_max_[w] = mx;

  // Bin every score once (mn == τ_1(w), the multiset minimum, so the edges
  // and counts are identical to binning the selected order statistics).
  // simd::BinDoubles computes exactly BinOf per element, and the bin
  // vector then feeds the histogram and the selection band without
  // recomputing the float path.
  const double inv =
      mx > mn ? static_cast<double>(bins_) / (mx - mn) : 0.0;
  scratch.bins.resize(n);
  uint32_t* bins = scratch.bins.data();
  simd::BinDoubles(scores, n, mn, inv, static_cast<uint32_t>(bins_), bins);

  // Four partial histograms hide the increment's store-to-load latency on
  // runs of same-bin scores (concentrated score distributions are the
  // common case); pre accumulates partial 0 in place.
  uint32_t* pre = hist_prefix_.data() + w * bins_;
  std::memset(pre, 0, bins_ * sizeof(uint32_t));
  scratch.partial.assign(3 * bins_, 0);
  uint32_t* h1 = scratch.partial.data();
  uint32_t* h2 = h1 + bins_;
  uint32_t* h3 = h2 + bins_;
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    ++pre[bins[j]];
    ++h1[bins[j + 1]];
    ++h2[bins[j + 2]];
    ++h3[bins[j + 3]];
  }
  for (; j < n; ++j) ++pre[bins[j]];
  for (size_t b = 0; b < bins_; ++b) pre[b] += h1[b] + h2[b] + h3[b];

  // Histogram-guided selection: the K smallest scores all live in the
  // bin prefix [0, b*], where b* is the first bin whose cumulative count
  // reaches K — BinOf is monotone in the score, so anything binned past
  // b* is strictly greater than at least K scores binned at or before it
  // and can never be an order statistic τ_1..τ_K. Selecting within that
  // prefix (usually a small fraction of n for K << n) yields exactly the
  // same K values as selecting over all n scores.
  size_t bstar = bins_ - 1;
  uint32_t cum = 0;
  for (size_t b = 0; b < bins_; ++b) {
    cum += pre[b];
    if (cum >= k_cap_) {
      bstar = b;
      break;
    }
  }
  std::vector<double>& band = scratch.band;
  band.clear();
  for (j = 0; j < n; ++j) {
    if (bins[j] <= bstar) band.push_back(scores[j]);
  }
  std::nth_element(band.begin(), band.begin() + (k_cap_ - 1), band.end());
  std::sort(band.begin(), band.begin() + k_cap_);
  for (j = 0; j < k_cap_; ++j) tau_[j * m + w] = band[j];

  uint32_t run = 0;
  for (size_t b = 0; b < bins_; ++b) {
    run += pre[b];
    pre[b] = run;
  }
}

Result<TauIndex> TauIndex::FromParts(const Dataset& weights, size_t num_points,
                                     size_t k_cap, size_t bins,
                                     std::vector<double> tau,
                                     std::vector<double> score_max,
                                     std::vector<uint32_t> hist_prefix) {
  const size_t m = weights.size();
  if (weights.dim() == 0) {
    return Status::InvalidArgument("weights must have dim >= 1");
  }
  if (num_points == 0 || k_cap == 0 || k_cap > num_points) {
    return Status::Corruption("tau index k_cap/num_points out of range");
  }
  if (bins < 2 || bins > (size_t{1} << 20)) {
    return Status::Corruption("tau index bin count out of range");
  }
  if (tau.size() != k_cap * m || score_max.size() != m ||
      hist_prefix.size() != m * bins) {
    return Status::Corruption("tau index component sizes do not match W");
  }
  for (size_t w = 0; w < m; ++w) {
    // τ rows must be non-decreasing in k and bounded by the max score;
    // prefix counts must be non-decreasing and end at |P|. Violations mean
    // the file does not describe any score multiset.
    for (size_t j = 1; j < k_cap; ++j) {
      if (tau[j * m + w] < tau[(j - 1) * m + w]) {
        return Status::Corruption("tau thresholds are not sorted");
      }
    }
    if (score_max[w] < tau[(k_cap - 1) * m + w]) {
      return Status::Corruption("tau max score below k-th threshold");
    }
    const uint32_t* pre = hist_prefix.data() + w * bins;
    for (size_t b = 1; b < bins; ++b) {
      if (pre[b] < pre[b - 1]) {
        return Status::Corruption("tau histogram prefix not monotone");
      }
    }
    if (pre[bins - 1] != num_points) {
      return Status::Corruption("tau histogram does not sum to |P|");
    }
  }
  TauIndex index;
  index.dim_ = weights.dim();
  index.num_points_ = num_points;
  index.num_weights_ = m;
  index.k_cap_ = k_cap;
  index.bins_ = bins;
  index.tau_ = std::move(tau);
  index.score_max_ = std::move(score_max);
  index.hist_prefix_ = std::move(hist_prefix);
  index.BuildWeightColumns(weights);
  return index;
}

void TauIndex::ScoreBlock(const double* const* queries, size_t num_queries,
                          size_t w_begin, size_t w_end, double* scores,
                          size_t stride) const {
  // The sub-range view of the mirror starts at column w_begin with the
  // same row pitch; q[i] * w[i] rounds identically to w[i] * q[i], so
  // these scores match InnerProduct(w, q) bit-for-bit.
  simd::ScoreTileColumns(wcol_.data() + w_begin, num_weights_,
                         w_end - w_begin, queries, num_queries, dim_, scores,
                         stride);
}

void TauIndex::TopKBatchRange(const double* const* queries,
                              size_t num_queries, size_t k, size_t w_begin,
                              size_t w_end,
                              ReverseTopKResult* results) const {
  if (k == 0 || w_begin >= w_end || num_queries == 0) return;
  if (k > num_points_) {
    for (size_t r = 0; r < num_queries; ++r) {
      for (size_t w = w_begin; w < w_end; ++w) {
        results[r].push_back(static_cast<VectorId>(w));
      }
    }
    return;
  }
  const double* tau_k = tau_.data() + (k - 1) * num_weights_;
  const size_t chunk = std::min(kScoreChunk, w_end - w_begin);
  std::vector<double> scores(num_queries * chunk);
  std::vector<uint32_t> selected(chunk);
  for (size_t c0 = w_begin; c0 < w_end; c0 += chunk) {
    const size_t len = std::min(chunk, w_end - c0);
    ScoreBlock(queries, num_queries, c0, c0 + len, scores.data(), chunk);
    for (size_t r = 0; r < num_queries; ++r) {
      const size_t cnt = simd::SelectLessEqual(
          scores.data() + r * chunk, tau_k + c0, len, selected.data());
      for (size_t t = 0; t < cnt; ++t) {
        results[r].push_back(static_cast<VectorId>(c0 + selected[t]));
      }
    }
  }
}

int64_t TauIndex::RankLowerBound(size_t w, double score) const {
  const double mn = tau_[w];  // τ_1(w), the histogram's lower edge
  if (score <= mn) return 0;
  const double mx = score_max_[w];
  if (score > mx) return static_cast<int64_t>(num_points_);
  const double inv = static_cast<double>(bins_) / (mx - mn);
  const size_t b = BinOf(score, mn, inv, bins_);
  return b == 0 ? 0
               : static_cast<int64_t>(hist_prefix_[w * bins_ + b - 1]);
}

TauRankBounds TauIndex::BoundRank(size_t w, double score) const {
  const size_t m = num_weights_;
  // Count of τ_j(w) < score by binary search over the k-major columns:
  // rank(w, q) >= j ⟺ τ_j(w) < f_w(q), so the count IS the rank whenever
  // it stops short of k_cap.
  size_t lo = 0;
  size_t hi = k_cap_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (tau_[mid * m + w] < score) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < k_cap_) {
    return TauRankBounds{static_cast<int64_t>(lo), static_cast<int64_t>(lo)};
  }
  const int64_t n = static_cast<int64_t>(num_points_);
  const double mn = tau_[w];  // τ_1(w), the histogram's lower edge
  const double mx = score_max_[w];
  if (score <= mn) return TauRankBounds{0, 0};
  if (score > mx) return TauRankBounds{n, n};
  const double inv = static_cast<double>(bins_) / (mx - mn);
  const uint32_t* pre = hist_prefix_.data() + w * bins_;
  const size_t b = BinOf(score, mn, inv, bins_);
  const int64_t upper = static_cast<int64_t>(pre[b]);
  int64_t lower = b == 0 ? 0 : static_cast<int64_t>(pre[b - 1]);
  lower = std::max(lower, static_cast<int64_t>(k_cap_));
  return TauRankBounds{std::min(lower, upper), upper};
}

size_t TauIndex::MemoryBytes() const {
  return tau_.size() * sizeof(double) + score_max_.size() * sizeof(double) +
         hist_prefix_.size() * sizeof(uint32_t) +
         wcol_.size() * sizeof(double);
}

}  // namespace gir
