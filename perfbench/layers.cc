// `gir_perfbench layers`: the in-process half of the traced run.
//
// A stretch of the workload's seeded op stream that the served run
// measured (each client's ops from its first measured one, clients
// interleaved round-robin) is replayed through each layer's public
// functions with a span around every call: DynamicGirIndex,
// ShardedGirIndex, and ShardedGirIndex with a ShardedWal attached. Each
// index first takes the mutations the clients issued before the stretch,
// untimed. Because every layer sees identical inputs, a layer's self time
// is its span minus the span of the layer below on the same op
// (benchlib.py does the subtraction), and the served run's span of the
// same op gives the server's. The core kernels and the GirIndex batch
// engine are timed directly on the same data and queries.

#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>

#include "common.h"
#include "core/simd.h"
#include "grid/dynamic_index.h"
#include "grid/gir_queries.h"
#include "grid/sharded_index.h"
#include "io/dataset_io.h"
#include "io/wal.h"
#include "oracle.h"

namespace perfbench {
namespace {

using gir::ConstRow;
using gir::Dataset;

class Tracer {
 public:
  void Add(const std::string& name, uint64_t op, int64_t start,
           int64_t end) {
    Span s;
    s.id = spans_.size() + 1;
    s.op = op;
    s.name = name;
    s.start_ns = start;
    s.end_ns = end;
    spans_.push_back(std::move(s));
  }

  /// Points each span of layer `child` at the span of layer `parent` on
  /// the same op (layers are name prefixes such as "grid.dynamic.").
  void Link(const std::string& parent, const std::string& child) {
    std::map<uint64_t, uint64_t> parent_of_op;
    for (const Span& s : spans_) {
      if (s.name.rfind(parent, 0) == 0) parent_of_op[s.op] = s.id;
    }
    for (Span& s : spans_) {
      if (s.name.rfind(child, 0) != 0) continue;
      const auto it = parent_of_op.find(s.op);
      if (it != parent_of_op.end()) s.parent = it->second;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double Dot(ConstRow a, ConstRow b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

// ---- core: the bound and classification kernels over the P cells ------

void MeasureKernels(const gir::GirIndex& index, const Dataset& weights,
                    ConstRow q, JsonObject& m, Tracer& tr) {
  constexpr size_t kSampleWeights = 16;
  constexpr int kReps = 20;
  constexpr int kSamples = 7;
  const gir::ApproxVectors& cells = index.point_cells();
  const gir::GridIndex& grid = index.grid();
  const size_t n = cells.size();
  const size_t d = cells.dim();
  const gir::Partitioner& pp = grid.point_partitioner();
  const double cell_width = pp.Boundary(1) - pp.Boundary(0);

  std::vector<double> lo(cells.column_stride()), hi(cells.column_stride());
  std::vector<uint32_t> band(n);
  // Per-weight lookup rows (cell -> lower/upper contribution), built
  // outside the timed loops.
  std::vector<std::vector<double>> tlo(kSampleWeights * d),
      thi(kSampleWeights * d);
  for (size_t w = 0; w < kSampleWeights; ++w) {
    const uint8_t* wc = index.weight_cells().row(w);
    for (size_t i = 0; i < d; ++i) {
      tlo[w * d + i].assign(256, 0.0);
      thi[w * d + i].assign(256, 0.0);
      for (size_t pc = 0; pc < grid.point_partitions(); ++pc) {
        tlo[w * d + i][pc] = grid.Lower(static_cast<uint8_t>(pc), wc[i]);
        thi[w * d + i][pc] = grid.Upper(static_cast<uint8_t>(pc), wc[i]);
      }
    }
  }

  std::vector<double> scaled_ns, lookup_ns, classify_ns;
  uint64_t band_total = 0;
  for (int sample = 0; sample < kSamples; ++sample) {
    int64_t t0 = NowNs();
    for (int r = 0; r < kReps; ++r) {
      for (size_t w = 0; w < kSampleWeights; ++w) {
        std::fill(lo.begin(), lo.end(), 0.0);
        for (size_t i = 0; i < d; ++i) {
          gir::simd::AccumulateScaledBytes(cells.column(i),
                                           weights.row(w)[i] * cell_width,
                                           lo.data(), n);
        }
      }
    }
    int64_t t1 = NowNs();
    tr.Add("core.scaled_bytes", 0, t0, t1);
    scaled_ns.push_back(static_cast<double>(t1 - t0) /
                        (double(kReps) * kSampleWeights * n * d));

    t0 = NowNs();
    for (int r = 0; r < kReps; ++r) {
      for (size_t w = 0; w < kSampleWeights; ++w) {
        std::fill(lo.begin(), lo.end(), 0.0);
        std::fill(hi.begin(), hi.end(), 0.0);
        for (size_t i = 0; i < d; ++i) {
          gir::simd::AccumulateLookupBounds(
              cells.column(i), tlo[w * d + i].data(), thi[w * d + i].data(),
              lo.data(), hi.data(), n);
        }
      }
    }
    t1 = NowNs();
    tr.Add("core.lookup_bounds", 0, t0, t1);
    lookup_ns.push_back(static_cast<double>(t1 - t0) /
                        (double(kReps) * kSampleWeights * n * d));

    // Classification against the query's own score under each weight,
    // with the bounds of the last weight's scaled pass plus its grid gap.
    int64_t busy = 0;
    for (size_t w = 0; w < kSampleWeights; ++w) {
      std::fill(lo.begin(), lo.end(), 0.0);
      double gap = 0.0;
      for (size_t i = 0; i < d; ++i) {
        gir::simd::AccumulateScaledBytes(cells.column(i),
                                         weights.row(w)[i] * cell_width,
                                         lo.data(), n);
        gap += weights.row(w)[i] * cell_width;
      }
      for (size_t j = 0; j < n; ++j) hi[j] = lo[j] + gap;
      const double fq = Dot(weights.row(w), q);
      t0 = NowNs();
      for (int r = 0; r < kReps; ++r) {
        size_t band_count = 0;
        gir::simd::ClassifyBounds(lo.data(), hi.data(), fq, fq, nullptr, n,
                                  band.data(), &band_count);
        band_total += band_count;
      }
      t1 = NowNs();
      tr.Add("core.classify", 0, t0, t1);
      busy += t1 - t0;
    }
    classify_ns.push_back(static_cast<double>(busy) /
                          (double(kReps) * kSampleWeights * n));
  }
  m.Num("core.bound_ns_per_cell", Median(scaled_ns));
  m.Num("core.lookup_bound_ns_per_cell", Median(lookup_ns));
  m.Num("core.classify_ns_per_point", Median(classify_ns));
  m.Num("core.classify_band_per_point",
        static_cast<double>(band_total) /
            (double(kSamples) * kReps * kSampleWeights * n));
}

// ---- grid.engine: GirIndex batch entry points on the workload's queries

Dataset Rows(const std::vector<const Op*>& ops, size_t begin, size_t end) {
  Dataset out(kDim);
  for (size_t i = begin; i < end; ++i) {
    out.AppendUnchecked(ConstRow(ops[i]->row));
  }
  return out;
}

void MeasureEngine(const gir::GirIndex& engine, const std::vector<Op>& ops,
                   size_t per_kind, JsonObject& m, Tracer& tr) {
  std::vector<const Op*> rtk, rkr;
  for (const Op& op : ops) {
    if (op.kind == OpKind::kRtk && rtk.size() < per_kind) rtk.push_back(&op);
    if (op.kind == OpKind::kRkr && rkr.size() < per_kind) rkr.push_back(&op);
  }
  gir::QueryStats total;
  uint64_t queries = 0;
  for (const bool is_rkr : {false, true}) {
    const std::vector<const Op*>& qs = is_rkr ? rkr : rtk;
    int64_t busy = 0;
    // Micro-batches of kClients rows: the most a closed loop of kClients
    // clients can hand the server's scheduler at once.
    for (size_t b = 0; b < qs.size(); b += kClients) {
      const size_t e = std::min(qs.size(), b + kClients);
      const Dataset batch = Rows(qs, b, e);
      gir::QueryStats stats;
      const int64_t t0 = NowNs();
      if (is_rkr) {
        engine.ReverseKRanksBatch(batch, qs[b]->k, &stats);
      } else {
        engine.ReverseTopKBatch(batch, qs[b]->k, &stats);
      }
      const int64_t t1 = NowNs();
      tr.Add(is_rkr ? "grid.engine.rkr_batch" : "grid.engine.rtk_batch",
             qs[b]->id, t0, t1);
      busy += t1 - t0;
      total += stats;
    }
    queries += qs.size();
    m.Num(is_rkr ? "grid.engine.rkr_us_per_query"
                 : "grid.engine.rtk_us_per_query",
          qs.empty() ? 0.0 : busy / 1e3 / static_cast<double>(qs.size()));
  }
  const double nq = std::max<double>(1.0, static_cast<double>(queries));
  m.Num("grid.engine.points_streamed_per_query", total.points_streamed / nq);
  m.Num("grid.engine.points_refined_per_query", total.points_refined / nq);
  m.Num("grid.engine.inner_products_per_query", total.inner_products / nq);
  m.Num("grid.engine.bound_evals_per_query", total.bound_evaluations / nq);
  m.Num("grid.engine.filter_rate", total.FilterRate());
  const uint64_t blocks = total.blocks_skipped + total.blocks_descended;
  m.Num("grid.engine.block_skip_ratio",
        blocks == 0 ? 0.0
                    : static_cast<double>(total.blocks_skipped) /
                          static_cast<double>(blocks));
}

/// The ROADMAP kAggMinAlive cliff: blocked RTK at k = 100 on scan queries,
/// per-query time and points streamed at each batch size Q.
void MeasureBatchSweep(const gir::GirIndex& engine, uint64_t seed,
                       JsonObject& m, Tracer& tr) {
  WorkloadSpec scan;
  FindWorkload("scan", &scan);
  constexpr size_t kQueries = 64;
  std::vector<Op> pool;
  OpStream stream(scan, seed, 0);
  while (pool.size() < kQueries) {
    Op op = stream.Next();
    if (op.kind == OpKind::kRtk) pool.push_back(std::move(op));
  }
  std::vector<const Op*> qs;
  for (const Op& op : pool) qs.push_back(&op);
  for (const size_t q : {1, 2, 4, 8, 16, 64}) {
    // 16 queries per point below Q = 64 keep the slow end affordable.
    const size_t count = q < 64 ? 16 : 64;
    gir::QueryStats stats;
    int64_t busy = 0;
    for (size_t b = 0; b < count; b += q) {
      const Dataset batch = Rows(qs, b, b + q);
      const int64_t t0 = NowNs();
      engine.ReverseTopKBatch(batch, scan.rtk_k, &stats);
      const int64_t t1 = NowNs();
      tr.Add("grid.engine.sweep_q" + std::to_string(q), qs[b]->id, t0, t1);
      busy += t1 - t0;
    }
    const std::string tag = ".q" + std::to_string(q);
    m.Num("grid.engine.batch_us_per_query" + tag,
          busy / 1e3 / static_cast<double>(count));
    m.Num("grid.engine.batch_points_streamed" + tag,
          static_cast<double>(stats.points_streamed) /
              static_cast<double>(count));
  }
}

// ---- replay through DynamicGirIndex / ShardedGirIndex (+ WAL) ----------

/// One replayed answer, to cross-check the layers against each other.
struct Answer {
  gir::ReverseTopKResult rtk;
  gir::ReverseKRanksResult rkr;
  bool ok = true;
  bool operator==(const Answer&) const = default;
};

template <class Index>
Answer Run(Index& index, const Op& op) {
  Answer a;
  switch (op.kind) {
    case OpKind::kRtk:
      a.rtk = index.ReverseTopK(ConstRow(op.row), op.k);
      break;
    case OpKind::kRkr:
      a.rkr = index.ReverseKRanks(ConstRow(op.row), op.k);
      break;
    case OpKind::kInsertPoint:
      a.ok = index.InsertPoint(ConstRow(op.row)).ok();
      break;
    case OpKind::kDeletePoint:
      a.ok = index.DeletePoint(static_cast<gir::VectorId>(op.target)).ok();
      break;
    case OpKind::kInsertWeight:
      a.ok = index.InsertWeight(ConstRow(op.row)).ok();
      break;
    case OpKind::kDeleteWeight:
      a.ok = index.DeleteWeight(static_cast<gir::VectorId>(op.target)).ok();
      break;
  }
  return a;
}

/// Applies the mutations before the stretch, untimed. Returns how many
/// the index rejected.
template <class Index>
uint64_t Warm(Index& index, const std::vector<Op>& prefix) {
  uint64_t rejected = 0;
  for (const Op& op : prefix) rejected += Run(index, op).ok ? 0 : 1;
  return rejected;
}

template <class Index>
std::vector<Answer> Replay(Index& index, const std::vector<Op>& ops,
                           const std::string& layer, Tracer& tr) {
  std::vector<Answer> answers;
  answers.reserve(ops.size());
  for (const Op& op : ops) {
    const int64_t t0 = NowNs();
    answers.push_back(Run(index, op));
    const int64_t t1 = NowNs();
    tr.Add(layer + OpKindName(op.kind), op.id, t0, t1);
  }
  return answers;
}

/// What recording spans costs the replay: the same queries timed in whole
/// passes with no per-op clock reads, and with the clock reads and
/// Tracer::Add of Replay(), alternating. The fastest pass of each kind is
/// the one least disturbed by the rest of the host. Queries leave the
/// index as it is.
template <class Index>
double TracingOverheadPct(Index& index, const std::vector<Op>& ops,
                          size_t max_queries) {
  constexpr int kRounds = 9;
  std::vector<const Op*> qs;
  for (const Op& op : ops) {
    if (IsQuery(op.kind) && qs.size() < max_queries) qs.push_back(&op);
  }
  for (const Op* op : qs) Run(index, *op);  // warm caches
  const auto pass = [&](bool traced) {
    Tracer scratch;
    const int64_t t0 = NowNs();
    for (const Op* op : qs) {
      if (!traced) {
        Run(index, *op);
        continue;
      }
      const int64_t a = NowNs();
      Run(index, *op);
      const int64_t b = NowNs();
      scratch.Add(std::string("sharded_wal.") + OpKindName(op->kind), op->id,
                  a, b);
    }
    return static_cast<double>(NowNs() - t0);
  };
  double plain = 0.0, traced = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    // Alternate which kind of pass goes first, so neither gains from
    // the other warming the caches.
    for (const bool t : {round % 2 == 1, round % 2 == 0}) {
      double& best = t ? traced : plain;
      const double ns = pass(t);
      best = best == 0.0 ? ns : std::min(best, ns);
    }
  }
  return 100.0 * (traced / plain - 1.0);
}

gir::ShardedIndexOptions ServerShardOptions() {
  // What `gir_serve --shards 2 --scan-mode tau` builds.
  gir::ShardedIndexOptions opts;
  opts.shards = kShards;
  opts.background_compact = true;
  opts.dynamic.gir.scan_mode = gir::ScanMode::kTauIndex;
  return opts;
}

}  // namespace

int RunLayers(const LayerOptions& o) {
  auto points = gir::LoadDataset(o.data_dir + "/points.bin");
  auto weights = gir::LoadDataset(o.data_dir + "/weights.bin");
  if (!points.ok() || !weights.ok()) {
    std::fprintf(stderr, "error: cannot load the data files\n");
    return 2;
  }
  const Dataset& P = points.value();
  const Dataset& W = weights.value();
  JsonObject m;
  Tracer tr;

  // Scan's k = 100 queries cost tens of ms each on one core, so its
  // replay is shorter; the write workloads need enough mutations for
  // per-kind medians.
  const bool slow_queries = o.spec.rtk_k > 64;
  const size_t per_client = slow_queries ? 16 : 500;
  std::vector<Op> prefix;
  const std::vector<Op> ops =
      StretchOps(o.spec, o.seed, o.from, per_client, &prefix);

  gir::GirOptions gopts;
  gopts.scan_mode = gir::ScanMode::kTauIndex;
  auto engine = gir::GirIndex::Build(P, W, gopts);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 2;
  }
  const Op* first_query = nullptr;
  for (const Op& op : ops) {
    if (IsQuery(op.kind)) {
      first_query = &op;
      break;
    }
  }
  if (first_query == nullptr) {
    std::fprintf(stderr, "error: the replayed stream holds no query\n");
    return 2;
  }
  MeasureKernels(engine.value(), W, ConstRow(first_query->row), m, tr);
  const size_t engine_per_kind = slow_queries ? 32 : 256;
  MeasureEngine(engine.value(),
                InterleavedOps(o.spec, o.seed, engine_per_kind),
                engine_per_kind, m, tr);
  MeasureBatchSweep(engine.value(), o.seed, m, tr);

  // grid.dynamic
  gir::DynamicIndexOptions dopts;
  dopts.gir.scan_mode = gir::ScanMode::kTauIndex;
  auto dyn = gir::DynamicGirIndex::Build(P, W, dopts);
  if (!dyn.ok()) {
    std::fprintf(stderr, "error: %s\n", dyn.status().ToString().c_str());
    return 2;
  }
  uint64_t mismatches = Warm(dyn.value(), prefix);
  const std::vector<Answer> dyn_answers =
      Replay(dyn.value(), ops, "grid.dynamic.", tr);
  {
    // The replayed answers against the reference oracle on the seed's
    // sample; the other layers are held equal to these below.
    gir::ThreadPool pool(kClients);
    Reference reference(P, W, pool);
    for (const Op& op : prefix) mismatches += reference.Apply(op).ok() ? 0 : 1;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!IsQuery(ops[i].kind)) {
        mismatches += reference.Apply(ops[i]).ok() ? 0 : 1;
      } else if (ops[i].referenced) {
        reference.Expect(ops[i], dyn_answers[i].rtk, dyn_answers[i].rkr);
      }
    }
    mismatches += reference.Finish().size();
    m.Int("replay_referenced", static_cast<int64_t>(reference.checked()));
  }
  m.Int("grid.dynamic.memory_bytes",
        static_cast<int64_t>(dyn.value().MemoryBytes().total()));
  {
    // Dirty-state query time over the engine rebuilt on the live sets.
    auto clean = gir::DynamicGirIndex::Build(dyn.value().LivePoints(),
                                             dyn.value().LiveWeights(), dopts);
    if (!clean.ok()) {
      std::fprintf(stderr, "error: %s\n", clean.status().ToString().c_str());
      return 2;
    }
    int64_t dirty_ns = 0, clean_ns = 0;
    size_t used = 0;
    for (const Op& op : ops) {
      if (!IsQuery(op.kind) || used == 32) continue;
      ++used;
      int64_t t0 = NowNs();
      Run(dyn.value(), op);
      int64_t t1 = NowNs();
      tr.Add("dirty.query", op.id, t0, t1);
      dirty_ns += t1 - t0;
      t0 = NowNs();
      Run(clean.value(), op);
      t1 = NowNs();
      tr.Add("clean.query", op.id, t0, t1);
      clean_ns += t1 - t0;
    }
    m.Num("grid.dynamic.dirty_query_ratio",
          clean_ns > 0 ? static_cast<double>(dirty_ns) / clean_ns : 0.0);
  }
  {
    double compact_ms = 0.0;
    if (dyn.value().dirty()) {
      const int64_t t0 = NowNs();
      const gir::Status s = dyn.value().Compact();
      const int64_t t1 = NowNs();
      tr.Add("grid.dynamic.compact", 0, t0, t1);
      if (!s.ok()) {
        std::fprintf(stderr, "error: compact: %s\n", s.ToString().c_str());
        return 2;
      }
      compact_ms = (t1 - t0) / 1e6;
    }
    m.Num("grid.dynamic.compact_ms", compact_ms);
  }

  // grid.sharded, then the same with the write-ahead log attached.
  uint64_t mutations = prefix.size();
  for (const Op& op : ops) mutations += IsQuery(op.kind) ? 0 : 1;
  {
    const int64_t t0 = NowNs();
    auto sharded = gir::ShardedGirIndex::Build(P, W, ServerShardOptions());
    const int64_t t1 = NowNs();
    if (!sharded.ok()) {
      std::fprintf(stderr, "error: %s\n", sharded.status().ToString().c_str());
      return 2;
    }
    tr.Add("setup.index_build", 0, t0, t1);
    m.Num("setup.index_build_s", (t1 - t0) / 1e9);
    mismatches += Warm(*sharded.value(), prefix);
    const auto answers = Replay(*sharded.value(), ops, "grid.sharded.", tr);
    for (size_t i = 0; i < ops.size(); ++i) {
      mismatches += answers[i] == dyn_answers[i] ? 0 : 1;
    }
  }
  {
    auto sharded = gir::ShardedGirIndex::Build(P, W, ServerShardOptions());
    if (!sharded.ok()) {
      std::fprintf(stderr, "error: %s\n", sharded.status().ToString().c_str());
      return 2;
    }
    const std::string wal_dir = o.data_dir + "/layers_wal";
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
    std::filesystem::create_directories(wal_dir, ec);
    auto wal = gir::ShardedWal::Open(wal_dir, static_cast<uint32_t>(kShards),
                                     sharded.value()->sequence(),
                                     gir::FsyncPolicy::kAlways);
    gir::Status s = wal.ok()
                        ? sharded.value()->AttachWal(std::move(wal).value())
                        : wal.status();
    if (!s.ok()) {
      std::fprintf(stderr, "error: wal: %s\n", s.ToString().c_str());
      return 2;
    }
    mismatches += Warm(*sharded.value(), prefix);
    const auto answers = Replay(*sharded.value(), ops, "sharded_wal.", tr);
    for (size_t i = 0; i < ops.size(); ++i) {
      mismatches += answers[i] == dyn_answers[i] ? 0 : 1;
    }
    // Measured on a settled index: a compaction in flight would take CPU
    // from some passes.
    sharded.value()->WaitBackgroundIdle();
    m.Num("trace.overhead_pct",
          TracingOverheadPct(*sharded.value(), ops, slow_queries ? 8 : 256));
    const gir::WalStats ws = sharded.value()->wal()->stats();
    const double per =
        mutations == 0 ? 0.0 : 1.0 / static_cast<double>(mutations);
    m.Num("io.wal.bytes_per_write", static_cast<double>(ws.bytes) * per);
    m.Num("io.wal.syncs_per_write", static_cast<double>(ws.syncs) * per);
    sharded.value().reset();
    std::filesystem::remove_all(wal_dir, ec);
  }
  m.Int("replay_ops", static_cast<int64_t>(ops.size()));
  m.Int("replay_prefix", static_cast<int64_t>(prefix.size()));
  m.Int("replay_mutations", static_cast<int64_t>(mutations));
  m.Int("replay_mismatches", static_cast<int64_t>(mismatches));

  tr.Link("sharded_wal.", "grid.sharded.");
  tr.Link("grid.sharded.", "grid.dynamic.");
  tr.Link("dirty.query", "clean.query");
  if (!WriteText(o.out_path, m.Close() + "\n") ||
      !WriteSpans(o.spans_path, tr.spans())) {
    std::fprintf(stderr, "error: cannot write the layer results\n");
    return 2;
  }
  return 0;
}

}  // namespace perfbench
