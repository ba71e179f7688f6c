#include "server/result_cache.h"

#include <algorithm>
#include <cstring>

namespace gir {

namespace {

/// Entry bookkeeping outside the payload vectors: list/map node overhead
/// approximated as a flat constant so the byte budget tracks real memory
/// without per-platform introspection.
constexpr size_t kEntryOverhead = 128;

size_t PayloadBytes(size_t dim, const ReverseTopKResult& topk,
                    const ReverseKRanksResult& kranks) {
  return dim * sizeof(double) + topk.size() * sizeof(VectorId) +
         kranks.size() * sizeof(RankedWeight) + kEntryOverhead;
}

/// 64-bit FNV-1a over raw bytes — entries additionally compare the full
/// key, so the hash only has to spread buckets, not be collision-free.
uint64_t Fnv1a(const void* data, size_t size, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed ^ 14695981039346656037ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Maximum stored rank of an RKR answer (sorted ascending by rank), as
/// the unsigned value the band comparisons use. Empty answer => 0.
uint64_t MaxRank(const ReverseKRanksResult& kranks) {
  if (kranks.empty()) return 0;
  return static_cast<uint64_t>(kranks.back().rank);
}

}  // namespace

ResultCache::ResultCache(ResultCacheOptions options, uint64_t fingerprint,
                         ServerMetrics* metrics)
    : options_(options), fingerprint_(fingerprint), metrics_(metrics) {}

uint64_t ResultCache::KeyHash(const double* q, size_t dim, uint32_t k,
                              bool is_rkr) const {
  uint64_t seed = fingerprint_ * 1099511628211ull;
  seed ^= (uint64_t{k} << 1) | (is_rkr ? 1u : 0u);
  return Fnv1a(q, dim * sizeof(double), seed);
}

ResultCache::EntryList::iterator ResultCache::FindLocked(
    uint64_t hash, const double* q, size_t dim, uint32_t k, bool is_rkr) {
  auto bucket = index_.find(hash);
  if (bucket == index_.end()) return entries_.end();
  for (EntryList::iterator it : bucket->second) {
    if (it->k == k && it->is_rkr == is_rkr && it->query.size() == dim &&
        std::memcmp(it->query.data(), q, dim * sizeof(double)) == 0) {
      return it;
    }
  }
  return entries_.end();
}

void ResultCache::TouchLocked(EntryList::iterator it) {
  entries_.splice(entries_.begin(), entries_, it);
}

void ResultCache::EraseLocked(EntryList::iterator it) {
  auto bucket = index_.find(it->hash);
  if (bucket != index_.end()) {
    auto& vec = bucket->second;
    vec.erase(std::remove(vec.begin(), vec.end(), it), vec.end());
    if (vec.empty()) index_.erase(bucket);
  }
  bytes_ -= it->bytes;
  entries_.erase(it);
}

void ResultCache::EvictToBudgetLocked() {
  while (bytes_ > options_.max_bytes && !entries_.empty()) {
    EraseLocked(std::prev(entries_.end()));
    if (metrics_ != nullptr) metrics_->RecordCacheEviction();
  }
}

void ResultCache::PublishGaugesLocked() {
  if (metrics_ != nullptr) {
    metrics_->SetCacheBytes(bytes_);
    metrics_->SetCacheEntries(entries_.size());
  }
}

bool ResultCache::LookupTopK(ConstRow q, uint32_t k, uint64_t snap,
                             ReverseTopKResult* out) {
  const uint64_t hash = KeyHash(q.data(), q.size(), k, false);
  std::lock_guard<std::mutex> lock(mu_);
  EntryList::iterator it = FindLocked(hash, q.data(), q.size(), k, false);
  if (it == entries_.end() || snap < it->v_lo || snap > it->v_hi) {
    if (metrics_ != nullptr) metrics_->RecordCacheMiss();
    return false;
  }
  *out = it->topk;
  TouchLocked(it);
  if (metrics_ != nullptr) metrics_->RecordCacheHit();
  return true;
}

bool ResultCache::LookupKRanks(ConstRow q, uint32_t k, uint64_t snap,
                               ReverseKRanksResult* out) {
  const uint64_t hash = KeyHash(q.data(), q.size(), k, true);
  std::lock_guard<std::mutex> lock(mu_);
  EntryList::iterator it = FindLocked(hash, q.data(), q.size(), k, true);
  if (it == entries_.end() || snap < it->v_lo || snap > it->v_hi) {
    if (metrics_ != nullptr) metrics_->RecordCacheMiss();
    return false;
  }
  *out = it->kranks;
  TouchLocked(it);
  if (metrics_ != nullptr) metrics_->RecordCacheHit();
  return true;
}

bool ResultCache::Admit(ConstRow q, uint32_t k, bool is_rkr) {
  const uint64_t hash = KeyHash(q.data(), q.size(), k, is_rkr);
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t& slot = doorkeeper_[hash % kDoorkeeperSlots];
  if (slot == hash) return true;
  slot = hash;
  if (metrics_ != nullptr) metrics_->RecordCacheAdmissionSkip();
  return false;
}

void ResultCache::FillTopK(ConstRow q, uint32_t k, uint64_t version,
                           const ReverseTopKResult& result) {
  const uint64_t hash = KeyHash(q.data(), q.size(), k, false);
  std::lock_guard<std::mutex> lock(mu_);
  EntryList::iterator it = FindLocked(hash, q.data(), q.size(), k, false);
  if (it != entries_.end()) {
    // A bracket at or past `version` certifies the stored answer is at
    // least as fresh as the offered one; otherwise the offer supersedes.
    if (version <= it->v_hi) return;
    EraseLocked(it);
  }
  Entry entry;
  entry.hash = hash;
  entry.is_rkr = false;
  entry.k = k;
  entry.query.assign(q.begin(), q.end());
  entry.topk = result;
  entry.v_lo = version;
  entry.v_hi = version;
  entry.bytes = PayloadBytes(q.size(), entry.topk, entry.kranks);
  bytes_ += entry.bytes;
  entries_.push_front(std::move(entry));
  index_[hash].push_back(entries_.begin());
  EvictToBudgetLocked();
  PublishGaugesLocked();
}

void ResultCache::FillKRanks(ConstRow q, uint32_t k, uint64_t version,
                             const ReverseKRanksResult& result) {
  const uint64_t hash = KeyHash(q.data(), q.size(), k, true);
  std::lock_guard<std::mutex> lock(mu_);
  EntryList::iterator it = FindLocked(hash, q.data(), q.size(), k, true);
  if (it != entries_.end()) {
    if (version <= it->v_hi) return;
    EraseLocked(it);
  }
  Entry entry;
  entry.hash = hash;
  entry.is_rkr = true;
  entry.k = k;
  entry.query.assign(q.begin(), q.end());
  entry.kranks = result;
  entry.v_lo = version;
  entry.v_hi = version;
  entry.bytes = PayloadBytes(q.size(), entry.topk, entry.kranks);
  bytes_ += entry.bytes;
  entries_.push_front(std::move(entry));
  index_[hash].push_back(entries_.begin());
  EvictToBudgetLocked();
  PublishGaugesLocked();
}

template <typename SurvivesFn>
void ResultCache::PassLocked(uint64_t seq, SurvivesFn survives) {
  uint64_t extended = 0, dropped = 0;
  for (EntryList::iterator it = entries_.begin(); it != entries_.end();) {
    EntryList::iterator cur = it++;
    if (cur->v_hi >= seq) continue;  // a later pass already covered it
    if (cur->v_hi + 1 == seq && survives(*cur)) {
      cur->v_hi = seq;
      ++extended;
    } else {
      // Either the probe says the answer may have changed, or this pass
      // arrived out of order and the entry's bracket can no longer reach
      // the current sequence — drop it.
      EraseLocked(cur);
      ++dropped;
    }
  }
  if (metrics_ != nullptr) {
    if (extended > 0) metrics_->RecordCacheExtensions(extended);
    if (dropped > 0) metrics_->RecordCacheInvalidations(dropped);
  }
  PublishGaugesLocked();
}

void ResultCache::OnPointMutation(uint64_t seq, uint32_t band) {
  std::lock_guard<std::mutex> lock(mu_);
  PassLocked(seq, [band](const Entry& e) {
    if (!e.is_rkr) {
      // RTK membership of any weight flips only if the mutated point sits
      // at position <= k in that weight's live score list.
      return uint64_t{e.k} < uint64_t{band};
    }
    // An RKR answer with maximum stored rank R is a function of the rank
    // prefix up to R; the mutated point perturbs a rank only when its
    // position is <= R+1 in that weight's list.
    return MaxRank(e.kranks) + 1 < uint64_t{band};
  });
}

void ResultCache::OnWeightInsert(uint64_t seq, const std::vector<double>& w,
                                 const std::vector<double>& head) {
  std::lock_guard<std::mutex> lock(mu_);
  if (head.empty()) {
    // Probe unavailable (e.g. τ heads disabled): the new weight could
    // enter any answer — conservative full drop.
    PassLocked(seq, [](const Entry&) { return false; });
    return;
  }
  PassLocked(seq, [&](const Entry& e) {
    if (e.query.size() != w.size()) return false;
    double score = 0.0;
    for (size_t i = 0; i < w.size(); ++i) score += w[i] * e.query[i];
    // head[t-1] is the exact t-th smallest live point score under the new
    // weight, so rank(w_new, q) >= t iff head[t-1] < score (strict, the
    // rank convention).
    if (!e.is_rkr) {
      // Existing memberships are untouched (ranks depend only on the
      // point set); the answer changes only if w_new itself qualifies,
      // i.e. rank < k.
      return head.size() >= e.k && head[e.k - 1] < score;
    }
    // A partial RKR answer holds every live weight, so the new weight
    // always joins it. A full one changes only if w_new's rank beats the
    // stored maximum (ties lose: the new weight has the largest id).
    if (e.kranks.size() < e.k) return false;
    const uint64_t max_rank = MaxRank(e.kranks);
    if (max_rank == 0) return true;  // rank >= 0 trivially
    return head.size() >= max_rank && head[max_rank - 1] < score;
  });
}

void ResultCache::OnWeightDelete(uint64_t seq, uint64_t deleted_id) {
  std::lock_guard<std::mutex> lock(mu_);
  PassLocked(seq, [deleted_id](const Entry& e) {
    // Global live ids above the deleted one renumber down by one, so an
    // answer survives exactly when every stored id is below it. (A
    // partial RKR answer stores every live weight including the deleted
    // one, so it always fails this test, as it must.)
    if (!e.is_rkr) {
      for (VectorId id : e.topk) {
        if (uint64_t{id} >= deleted_id) return false;
      }
      return true;
    }
    for (const RankedWeight& rw : e.kranks) {
      if (uint64_t{rw.weight_id} >= deleted_id) return false;
    }
    return true;
  });
}

void ResultCache::OnCompact(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  // Compaction is a bit-identical rebuild: state seq equals state seq-1.
  PassLocked(seq, [](const Entry&) { return true; });
}

void ResultCache::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t dropped = entries_.size();
  entries_.clear();
  index_.clear();
  bytes_ = 0;
  if (metrics_ != nullptr && dropped > 0) {
    metrics_->RecordCacheInvalidations(dropped);
  }
  PublishGaugesLocked();
}

size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace gir
