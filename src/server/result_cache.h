#ifndef GIR_SERVER_RESULT_CACHE_H_
#define GIR_SERVER_RESULT_CACHE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/dataset.h"
#include "core/query_types.h"
#include "server/metrics.h"

namespace gir {

/// Tuning knobs of the server-side result cache.
struct ResultCacheOptions {
  /// Byte budget across all cached entries (query row + result payload +
  /// bookkeeping). Least-recently-used entries are evicted past it.
  size_t max_bytes = 8u << 20;
};

/// ResultCache — version-bracketed LRU cache of reverse rank answers
/// (DESIGN.md §16).
///
/// Entries are keyed by (query row, k, family, shard-config fingerprint)
/// and carry a validity bracket [v_lo, v_hi] of router sequence numbers:
/// the cached answer is bit-identical to executing the query at any
/// version inside the bracket. A lookup reads the router sequence as its
/// snapshot and hits only when the bracket covers that snapshot, so a
/// served answer is exactly what a query admitted at that moment would
/// have computed.
///
/// Surgical invalidation. Every mutation (admitted at sequence S,
/// transforming state S-1 into state S) triggers one pass over the
/// entries. For each entry whose bracket currently ends at S-1 the pass
/// decides — from the mutation's probe data, never by re-executing —
/// whether the answer could differ between states S-1 and S:
///
///  * Point insert/delete carries a `band`: the mutated point's minimum
///    1-based position among the live score lists (the live-τ heads the
///    dynamic index already maintains). A membership flip of RTK(q,k)
///    requires the point to sit at position <= k under some weight, and
///    a change of an RKR(q,k) answer with maximum stored rank R requires
///    position <= R+1 — so entries with k < band (RTK) or R+1 < band
///    (RKR) provably kept their answer and get v_hi extended to S;
///    everything else is dropped.
///  * Weight insert carries the new weight's row and its live-τ head
///    (head[t-1] = exact t-th smallest live point score under it).
///    Existing answers only change if the new weight enters them:
///    rank(w_new, q) >= t iff head[t-1] < w_new·q, so an RTK entry
///    survives iff head certifies rank >= k and a full RKR entry
///    survives iff it certifies rank >= its maximum stored rank. An
///    empty head (probe unavailable) conservatively drops everything.
///  * Weight delete of global live id g renumbers every larger id down
///    by one, so an entry survives exactly when all its stored weight
///    ids are < g (an RKR answer smaller than k holds every live weight
///    and therefore always stores g itself).
///  * Compaction is a bit-identical rebuild: every entry is extended.
///
/// Passes may observe mutations out of order (readers race to the cache
/// mutex); an entry whose bracket already lags the pass sequence by more
/// than one is dropped rather than bridged — a hit-rate loss only, never
/// a correctness one, since its bracket could no longer reach the
/// current sequence anyway.
///
/// Thread safety: all methods are safe to call concurrently; one mutex
/// guards the map, the LRU list and the brackets.
class ResultCache {
 public:
  /// `fingerprint` folds the serving configuration (shard count, dim —
  /// anything that must match for an entry to be reusable) into every
  /// key. `metrics` (nullable) receives hit/miss/eviction/extension
  /// counters and byte/entry gauges.
  ResultCache(ResultCacheOptions options, uint64_t fingerprint,
              ServerMetrics* metrics);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // ---- Serving path ----------------------------------------------------

  /// Looks up the answer for (q, k) at snapshot version `snap` (the
  /// router sequence read by the caller). True iff a bracket-covering
  /// entry exists; the entry is refreshed in LRU order.
  bool LookupTopK(ConstRow q, uint32_t k, uint64_t snap,
                  ReverseTopKResult* out);
  bool LookupKRanks(ConstRow q, uint32_t k, uint64_t snap,
                    ReverseKRanksResult* out);

  /// Admission doorkeeper (TinyLFU-style, DESIGN.md §16): true iff the
  /// key of (q, k, family) was offered here before, i.e. its hash still
  /// holds its slot in a fixed direct-mapped array of kDoorkeeperSlots
  /// hashes. Otherwise records the hash and returns false. The server
  /// fills only admitted answers, so a query seen once costs no entry.
  bool Admit(ConstRow q, uint32_t k, bool is_rkr);

  /// Inserts an answer computed at `version`. A pre-existing entry for
  /// the key is kept if its bracket already covers `version` (the stored
  /// and offered answers are then provably identical), else replaced.
  void FillTopK(ConstRow q, uint32_t k, uint64_t version,
                const ReverseTopKResult& result);
  void FillKRanks(ConstRow q, uint32_t k, uint64_t version,
                  const ReverseKRanksResult& result);

  // ---- Invalidation passes (one per mutation, sequence S) --------------

  /// Point insert/delete admitted at `seq` with probe band `band` (the
  /// minimum 1-based live-score position of the mutated point across
  /// weights; UINT32_MAX when no live weight exists).
  void OnPointMutation(uint64_t seq, uint32_t band);
  /// Weight insert admitted at `seq`: `w` is the inserted row, `head`
  /// the owning shard's live-τ head for it (empty = unknown).
  void OnWeightInsert(uint64_t seq, const std::vector<double>& w,
                      const std::vector<double>& head);
  /// Weight delete of global live id `deleted_id` admitted at `seq`.
  void OnWeightDelete(uint64_t seq, uint64_t deleted_id);
  /// Compaction admitted at `seq` (bit-identical rebuild: extends all).
  void OnCompact(uint64_t seq);

  /// Drops everything (used when a mutation's probe data is unavailable,
  /// e.g. the mutation failed mid-broadcast).
  void Flush();

  // ---- Introspection ---------------------------------------------------

  size_t entries() const;
  size_t bytes() const;

 private:
  struct Entry {
    uint64_t hash = 0;
    bool is_rkr = false;
    uint32_t k = 0;
    std::vector<double> query;
    ReverseTopKResult topk;
    ReverseKRanksResult kranks;
    uint64_t v_lo = 0;
    uint64_t v_hi = 0;
    size_t bytes = 0;
  };
  using EntryList = std::list<Entry>;

  uint64_t KeyHash(const double* q, size_t dim, uint32_t k,
                   bool is_rkr) const;
  /// Finds the entry for the exact key, or entries_.end().
  EntryList::iterator FindLocked(uint64_t hash, const double* q, size_t dim,
                                 uint32_t k, bool is_rkr);
  void TouchLocked(EntryList::iterator it);
  void EraseLocked(EntryList::iterator it);
  void EvictToBudgetLocked();
  void PublishGaugesLocked();

  /// Shared pass skeleton: for every entry calls survives(entry) and
  /// either extends v_hi to seq or erases. Entries whose bracket cannot
  /// reach seq are erased; entries already at or past seq are left.
  template <typename SurvivesFn>
  void PassLocked(uint64_t seq, SurvivesFn survives);

  const ResultCacheOptions options_;
  const uint64_t fingerprint_;
  ServerMetrics* const metrics_;

  mutable std::mutex mu_;
  EntryList entries_;  // front = most recently used
  std::unordered_map<uint64_t, std::vector<EntryList::iterator>> index_;
  size_t bytes_ = 0;
  static constexpr size_t kDoorkeeperSlots = 4096;  // 32 KiB of hashes
  std::array<uint64_t, kDoorkeeperSlots> doorkeeper_{};
};

}  // namespace gir

#endif  // GIR_SERVER_RESULT_CACHE_H_
