// `gir_perfbench load`: the closed-loop client side of the served
// benchmark plus its correctness gate.
//
// kClients threads, one GIRNET01 connection each, send their seeded op
// streams back to back (each waits for its reply before sending the next
// request) for a warm-up and then the measured window. The acknowledged
// mutations are replayed in index_version order into two oracles built
// from the same files, and every answer its seed selects is compared
// bit-for-bit with them at the version it was stamped with: a replica
// (DynamicGirIndex in the served scan mode, which isolates sharding,
// merging, the WAL and the wire) and the reference of oracle.h (the
// paper's loop nest and an exhaustive scan over the live sets, which
// share no engine code with the served path).

#include "load.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/thread_pool.h"
#include "grid/dynamic_index.h"
#include "io/dataset_io.h"
#include "oracle.h"
#include "server/client.h"

namespace perfbench {
namespace {

using gir::ConstRow;
using gir::ReverseKRanksResult;
using gir::ReverseTopKResult;

constexpr int64_t kStatsPollNs = 200'000'000;
/// The measured window (and the write tail) is cut into this many equal
/// sub-windows; run.py reports the median over them of each statistic.
/// Interference from other tenants of the host that slows at most four
/// of them (a stall of up to about 6 s in a 20 s window) leaves that
/// median alone, where it moves a single pooled percentile.
constexpr int kSubWindows = 9;
/// Pause between the write tail's sub-windows. The tail's writes take
/// well under a second in all; spread out like this, a stall of the host
/// shorter than the pause moves at most two sub-windows' medians.
constexpr auto kTailGap = std::chrono::milliseconds(500);

struct Record {
  Op op;
  bool ok = false;
  bool degraded = false;
  bool measured = false;
  bool tail = false;
  int window = 0;  ///< sub-window of a measured op
  uint64_t version = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  ReverseTopKResult rtk;
  ReverseKRanksResult rkr;
  std::string error;
};

void Send(gir::RemoteClient& client, Record& r) {
  const Op& op = r.op;
  gir::Status status = gir::Status::OK();
  r.start_ns = NowNs();
  switch (op.kind) {
    case OpKind::kRtk: {
      auto res = client.ReverseTopK(ConstRow(op.row), op.k);
      status = res.status();
      if (res.ok()) r.rtk = std::move(res).value();
      break;
    }
    case OpKind::kRkr: {
      auto res = client.ReverseKRanks(ConstRow(op.row), op.k);
      status = res.status();
      if (res.ok()) r.rkr = std::move(res).value();
      break;
    }
    case OpKind::kInsertPoint:
      status = client.InsertPoint(ConstRow(op.row));
      break;
    case OpKind::kDeletePoint:
      status = client.DeletePoint(op.target);
      break;
    case OpKind::kInsertWeight:
      status = client.InsertWeight(ConstRow(op.row));
      break;
    case OpKind::kDeleteWeight:
      status = client.DeleteWeight(op.target);
      break;
  }
  r.end_ns = NowNs();
  r.ok = status.ok();
  r.degraded = client.last_degraded();
  r.version = client.last_index_version();
  if (!status.ok()) r.error = status.ToString();
  if (r.degraded) r.error = "degraded answer";
}

/// Largest `shardN.queue_depth` in a STATS text block.
uint64_t MaxQueueDepth(const std::string& stats) {
  std::istringstream in(stats);
  std::string key;
  uint64_t value = 0, best = 0;
  while (in >> key >> value) {
    const std::string suffix = ".queue_depth";
    if (key.rfind("shard", 0) == 0 && key.size() > suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      best = std::max(best, value);
    }
  }
  return best;
}

struct Shared;

/// Completion step of the client barrier: the first phase (every client
/// connected) starts the clock, so connection set-up is outside the window.
struct StartClock {
  Shared* sh;
  void operator()() noexcept;
};

struct Shared {
  const LoadOptions* opts = nullptr;
  int64_t t0 = 0;
  int64_t warm_end = 0;
  int64_t window_end = 0;
  std::barrier<StartClock>* phase = nullptr;
  std::atomic<uint64_t> queue_depth_max{0};
  /// Per client: index in its stream of its first measured op.
  std::vector<uint64_t> first_measured = std::vector<uint64_t>(kClients, 0);
  std::string stats;
  std::string connect_error;
  std::mutex mu;
};

void StartClock::operator()() noexcept {
  if (sh->t0 != 0) return;
  sh->t0 = NowNs();
  sh->warm_end = sh->t0 + static_cast<int64_t>(sh->opts->warmup_s * 1e9);
  sh->window_end = sh->warm_end + static_cast<int64_t>(sh->opts->seconds * 1e9);
}

void ClientMain(Shared& sh, uint32_t c, std::vector<Record>* out) {
  const LoadOptions& o = *sh.opts;
  auto conn = gir::RemoteClient::Connect("127.0.0.1", o.port);
  if (!conn.ok()) {
    {
      std::lock_guard<std::mutex> lk(sh.mu);
      sh.connect_error = conn.status().ToString();
    }
    sh.phase->arrive_and_wait();
    sh.phase->arrive_and_wait();
    return;
  }
  gir::RemoteClient& client = conn.value();
  sh.phase->arrive_and_wait();  // every client connected: start together

  OpStream stream(o.spec, o.seed, c);
  int64_t next_poll = sh.t0 + kStatsPollNs;
  bool in_window = false;
  for (uint64_t i = 0;; ++i) {
    if (NowNs() >= sh.window_end) break;
    Record r;
    r.op = stream.Next();
    Send(client, r);
    r.measured = r.start_ns >= sh.warm_end;
    if (r.measured) {
      r.window = static_cast<int>(std::min<int64_t>(
          kSubWindows - 1, (r.start_ns - sh.warm_end) * kSubWindows /
                               (sh.window_end - sh.warm_end)));
      if (!in_window) sh.first_measured[c] = i;
      in_window = true;
    }
    // Only mutations and checked answers are needed after the run.
    if (IsQuery(r.op.kind) && !r.op.checked && !r.op.referenced) {
      r.op.row.clear();
      r.rtk.clear();
      r.rkr.clear();
    }
    out->push_back(std::move(r));
    if (o.trace && c == 0 && NowNs() >= next_poll) {
      next_poll += kStatsPollNs;
      auto stats = client.Stats();
      if (stats.ok()) {
        uint64_t depth = MaxQueueDepth(stats.value());
        uint64_t seen = sh.queue_depth_max.load();
        while (depth > seen &&
               !sh.queue_depth_max.compare_exchange_weak(seen, depth)) {
        }
      }
    }
  }

  // Write tail (workloads without writes of their own): starts once every
  // client has left the query window, so no query sees its mutations.
  // Client 0 alone sends it, back to back, as insert/delete pairs of one
  // point (WorkloadSpec::insert_delete_pairs): every write then costs the
  // same and waits for no other. Several writers, whose per-write cost
  // grew with the delta, or a think time that left the server idle
  // between writes, moved the tail's median by a third to a half from run
  // to run.
  sh.phase->arrive_and_wait();
  if (c == 0) {
    WorkloadSpec tail_spec = o.spec;
    tail_spec.name += ".tail";
    tail_spec.insert_delete_pairs = true;
    OpStream tail(tail_spec, o.seed, c);
    for (uint32_t i = 0; i < o.tail_ops; ++i) {
      Record r;
      r.op = tail.Next();
      r.window = static_cast<int>(i * kSubWindows / o.tail_ops);
      if (i > 0 && r.window != out->back().window) {
        std::this_thread::sleep_for(kTailGap);
      }
      Send(client, r);
      r.measured = true;
      r.tail = true;
      out->push_back(std::move(r));
    }
    auto stats = client.Stats();
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.stats = stats.ok() ? stats.value() : std::string();
  }
}

gir::Status ApplyMutation(gir::DynamicGirIndex& index, const Op& op) {
  switch (op.kind) {
    case OpKind::kInsertPoint:
      return index.InsertPoint(ConstRow(op.row));
    case OpKind::kDeletePoint:
      return index.DeletePoint(static_cast<gir::VectorId>(op.target));
    case OpKind::kInsertWeight:
      return index.InsertWeight(ConstRow(op.row));
    case OpKind::kDeleteWeight:
      return index.DeleteWeight(static_cast<gir::VectorId>(op.target));
    default:
      return gir::Status::Internal("not a mutation");
  }
}

struct CheckResult {
  uint64_t checked = 0;
  uint64_t referenced = 0;
  uint64_t wrong = 0;
  std::string first_error;
};

/// Replays acknowledged mutations in version order into both oracles and
/// checks every selected answer at the version it was stamped with. The
/// replica runs the queries sharing a version as one parallel batch per
/// (kind, k); the reference batches its checks itself.
CheckResult CheckAnswers(const LoadOptions& o,
                         const std::vector<Record*>& records) {
  CheckResult cr;
  auto points = gir::LoadDataset(o.data_dir + "/points.bin");
  auto weights = gir::LoadDataset(o.data_dir + "/weights.bin");
  if (!points.ok() || !weights.ok()) {
    cr.wrong = 1;
    cr.first_error = "oracle cannot load the data files";
    return cr;
  }
  gir::DynamicIndexOptions dopts;
  dopts.gir.scan_mode = gir::ScanMode::kTauIndex;
  auto built = gir::DynamicGirIndex::Build(points.value(), weights.value(),
                                           dopts);
  if (!built.ok()) {
    cr.wrong = 1;
    cr.first_error = "oracle build failed: " + built.status().ToString();
    return cr;
  }
  gir::DynamicGirIndex& oracle = built.value();
  gir::ThreadPool pool(kClients);
  Reference reference(points.value(), weights.value(), pool);

  std::vector<const Record*> muts, queries;
  for (const Record* r : records) {
    if (!r->ok || r->degraded) continue;
    if (IsQuery(r->op.kind)) {
      if (r->op.checked || r->op.referenced) queries.push_back(r);
    } else {
      muts.push_back(r);
    }
  }
  const auto by_version = [](const Record* a, const Record* b) {
    return a->version < b->version;
  };
  std::stable_sort(muts.begin(), muts.end(), by_version);
  std::stable_sort(queries.begin(), queries.end(), by_version);
  const auto fail = [&cr](const std::string& why) {
    ++cr.wrong;
    if (cr.first_error.empty()) cr.first_error = why;
  };
  for (size_t i = 1; i < muts.size(); ++i) {
    if (muts[i]->version == muts[i - 1]->version) {
      fail("two mutations acknowledged at version " +
           std::to_string(muts[i]->version));
    }
  }

  const auto apply = [&](const Op& op) {
    for (const gir::Status& s :
         {ApplyMutation(oracle, op), reference.Apply(op)}) {
      if (!s.ok()) {
        fail("an oracle rejected an acknowledged mutation: " + s.ToString());
      }
    }
  };
  size_t mi = 0;
  for (size_t qi = 0; qi < queries.size();) {
    const uint64_t v = queries[qi]->version;
    for (; mi < muts.size() && muts[mi]->version <= v; ++mi) {
      apply(muts[mi]->op);
    }
    size_t qend = qi;
    while (qend < queries.size() && queries[qend]->version == v) ++qend;
    // Group this version's replica checks by (kind, k) and run each group
    // as one parallel batch; results[i] of a batch equals the single-query
    // answer.
    std::map<std::pair<int, uint32_t>, std::vector<const Record*>> groups;
    for (size_t i = qi; i < qend; ++i) {
      const Record* r = queries[i];
      if (r->op.referenced) reference.Expect(r->op, r->rtk, r->rkr);
      if (r->op.checked) {
        groups[{static_cast<int>(r->op.kind), r->op.k}].push_back(r);
      }
    }
    for (const auto& [key, group] : groups) {
      gir::Dataset batch(kDim);
      for (const Record* r : group) {
        batch.AppendUnchecked(ConstRow(r->op.row));
      }
      if (key.first == static_cast<int>(OpKind::kRtk)) {
        const auto want =
            oracle.ParallelReverseTopKBatch(batch, key.second, pool);
        for (size_t i = 0; i < group.size(); ++i) {
          if (group[i]->rtk != want[i]) {
            fail("wrong rtk answer, op " + std::to_string(group[i]->op.id));
          }
        }
      } else {
        const auto want =
            oracle.ParallelReverseKRanksBatch(batch, key.second, pool);
        for (size_t i = 0; i < group.size(); ++i) {
          if (group[i]->rkr != want[i]) {
            fail("wrong rkr answer, op " + std::to_string(group[i]->op.id));
          }
        }
      }
      cr.checked += group.size();
    }
    qi = qend;
  }
  // The remaining mutations still have to be valid on the oracles.
  for (; mi < muts.size(); ++mi) apply(muts[mi]->op);
  for (const uint64_t id : reference.Finish()) {
    fail("answer differs from the reference, op " + std::to_string(id));
  }
  cr.referenced = reference.checked();
  return cr;
}

const char* LatencyClass(const Record& r) {
  if (r.op.kind == OpKind::kRtk) return "rtk";
  if (r.op.kind == OpKind::kRkr) return "rkr";
  return "write";
}

}  // namespace

int RunLoad(const LoadOptions& o) {
  Shared sh;
  sh.opts = &o;
  std::barrier<StartClock> phase(static_cast<std::ptrdiff_t>(kClients),
                                 StartClock{&sh});
  sh.phase = &phase;
  std::vector<std::vector<Record>> per_client(kClients);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kClients; ++c) {
    threads.emplace_back(ClientMain, std::ref(sh), c, &per_client[c]);
  }
  for (std::thread& t : threads) t.join();
  if (!sh.connect_error.empty()) {
    std::fprintf(stderr, "error: connect failed: %s\n",
                 sh.connect_error.c_str());
    return 2;
  }

  std::vector<Record*> all;
  for (auto& v : per_client) {
    for (Record& r : v) all.push_back(&r);
  }
  const int64_t check_start = NowNs();
  const CheckResult cr = CheckAnswers(o, all);
  const double check_s = (NowNs() - check_start) / 1e9;

  uint64_t attempted = 0, failed = 0, degraded = 0;
  std::vector<double> answered(kSubWindows, 0.0);
  std::string first_error = cr.first_error;
  std::map<std::string, std::vector<double>> lat_ms, lat_window;
  for (const char* cls : {"rtk", "rkr", "write"}) {
    lat_ms[cls];
    lat_window[cls];
  }
  std::vector<Span> spans;
  for (const Record* r : all) {
    ++attempted;
    const bool good = r->ok && !r->degraded;
    if (!good) {
      ++failed;
      if (r->degraded) ++degraded;
      if (first_error.empty()) first_error = r->error;
    }
    if (r->measured) {
      // A failed request is recorded as -1: benchlib counts it as over
      // every latency limit.
      lat_ms[LatencyClass(*r)].push_back(
          good ? (r->end_ns - r->start_ns) / 1e6 : -1.0);
      lat_window[LatencyClass(*r)].push_back(r->window);
      if (good && IsQuery(r->op.kind) && !r->tail) answered[r->window] += 1;
    }
    // The traced run's served spans: every measured answer of the window.
    if (o.trace && r->measured && !r->tail && good) {
      Span s;
      s.id = spans.size() + 1;
      s.op = r->op.id;
      s.name = std::string("served.") + OpKindName(r->op.kind);
      s.start_ns = r->start_ns;
      s.end_ns = r->end_ns;
      spans.push_back(std::move(s));
    }
  }

  JsonObject out;
  out.Str("workload", o.spec.name);
  out.Int("seed", static_cast<int64_t>(o.seed));
  out.Int("attempted", static_cast<int64_t>(attempted));
  out.Int("failed", static_cast<int64_t>(failed));
  out.Int("degraded", static_cast<int64_t>(degraded));
  out.Int("wrong", static_cast<int64_t>(cr.wrong));
  out.Int("checked", static_cast<int64_t>(cr.checked));
  out.Int("check_every", o.spec.check_every);
  out.Int("referenced", static_cast<int64_t>(cr.referenced));
  out.Int("reference_every", o.spec.reference_every);
  out.Num("check_s", check_s);
  out.Int("sub_windows", kSubWindows);
  out.Raw("answered_by_window", JsonNumArray(answered));
  out.Int("queue_depth_max", static_cast<int64_t>(sh.queue_depth_max.load()));
  std::vector<double> first(sh.first_measured.begin(),
                            sh.first_measured.end());
  out.Raw("first_measured", JsonNumArray(first));
  out.Str("first_error", first_error);
  out.Str("stats", sh.stats);
  JsonObject lat;
  for (const auto& [cls, values] : lat_ms) lat.Raw(cls, JsonNumArray(values));
  out.Raw("lat_ms", lat.Close());
  JsonObject windows;
  for (const auto& [cls, values] : lat_window) {
    windows.Raw(cls, JsonNumArray(values));
  }
  out.Raw("lat_window", windows.Close());
  if (!WriteText(o.out_path, out.Close() + "\n")) {
    std::fprintf(stderr, "error: cannot write %s\n", o.out_path.c_str());
    return 2;
  }
  if (o.trace && !WriteSpans(o.spans_path, spans)) {
    std::fprintf(stderr, "error: cannot write %s\n", o.spans_path.c_str());
    return 2;
  }
  return 0;
}

}  // namespace perfbench
