//===- AnswerCache.h - One serve epoch's answer cache -----------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The answer cache every serve epoch owns: one sharded LRU of query
/// answers (an id list or an alias verdict), keyed by a kind tag and one
/// or two node ids. A snapshot epoch keys by QueryEngine::canonId, so all
/// members of a collapsed class, and representatives whose sets were
/// deduplicated onto one physical set, share one entry; a demand epoch
/// keys by node id. Publishing a new epoch publishes a new empty cache,
/// so no answer ever needs invalidating.
///
//===----------------------------------------------------------------------===//

#ifndef AG_SERVE_ANSWERCACHE_H
#define AG_SERVE_ANSWERCACHE_H

#include "adt/LruCache.h"
#include "constraints/ConstraintSystem.h"
#include "obs/MetricsRegistry.h"
#include "obs/RequestContext.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace ag {

/// One cached answer: the sorted id list of pts/pointedby/callees, or
/// the verdict of alias.
struct Answer {
  std::shared_ptr<const std::vector<NodeId>> List;
  bool Verdict = false;
};

enum class AnswerKind : uint64_t { PointsTo, PointedBy, Callees, Alias };

using AnswerCache = ShardedLruCache<uint64_t, Answer>;

/// Entries per epoch, list answers and verdicts together.
constexpr size_t AnswerCacheEntries = size_t(1) << 16;

/// Packs \p K and the ids (23-bit by ConstraintSystem::MaxNodes) into
/// one key. Alias keys are order-free: (A, B) and (B, A) share one.
inline uint64_t answerKey(AnswerKind K, NodeId A, NodeId B = 0) {
  static_assert(ConstraintSystem::MaxNodes <= (1u << 23),
                "answer keys pack node ids into 23 bits");
  if (K == AnswerKind::Alias && A > B)
    std::swap(A, B);
  return (uint64_t(K) << 46) | (uint64_t(A) << 23) | B;
}

/// Looks \p Key up, counting the hit or miss and the request's LRU tier.
inline std::optional<Answer> probeAnswer(AnswerCache &Cache, uint64_t Key) {
  std::optional<Answer> Hit = Cache.get(Key);
  obs::count(Hit ? obs::Counter::ServeLruHits : obs::Counter::ServeLruMisses);
  obs::noteTierProbe(obs::ReqTier::Lru, Hit.has_value());
  return Hit;
}

} // namespace ag

#endif // AG_SERVE_ANSWERCACHE_H
