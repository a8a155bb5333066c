// Hash-consed ordered decision diagrams over condition atoms.
//
// The antichain representation keeps one interned conjunction per covering
// derivation of a tuple; over the infinite domain a union of strictly
// stronger conjunctions never covers a weaker one, so at high condition
// diversity the antichain per tuple is genuinely exponential and every
// And/Implies on it pays for the whole set. DDBackend instead gives each
// *boolean function* of condition atoms one canonical id: a reduced ordered
// decision diagram (ROBDD discipline) whose decision variables are condition
// atoms under a semantic order (see VarBefore). And/Or/Not are then the classic
// polynomial Apply recursion over a node unique-table and a memoized
// operation cache — the same hash-consing pattern the interner already uses
// for conjunctions, sharded 16 ways with deferred locks so it is free
// single-threaded and safe under PR 7's shared mode.
//
// The diagrams are propositional: a node branches on an atom's truth value
// with no knowledge that `x = y` and `x != y` exclude each other or that
// equality is a congruence. Theory reasoning happens exactly where verdicts
// are produced — Satisfiable/Implies/TautologyUnder run a BindingEnv-pruned
// DFS over diagram paths, which is exact over the paper's infinite constant
// domain (a path is a conjunction of =/!= literals, and BindingEnv decides
// those completely). Satisfiability caches its context-free verdict per id;
// an UNSAT id is unsatisfiable under any path context, so the cache also
// prunes inner recursion.
//
// Node and id layout: ids 0/1 are the shared true/false sentinels
// (kTrueCond/kFalseCond, matching ConjId); id >= 2 denotes nodes_[id - 2].
// Nodes and op-cache entries are append-only for the backend's lifetime.

#ifndef PW_CONDITION_DD_BACKEND_H_
#define PW_CONDITION_DD_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "condition/backend.h"
#include "condition/binding_env.h"
#include "util/stable_store.h"

namespace pw {

class DDBackend final : public ConditionBackend {
 public:
  explicit DDBackend(ConditionInterner& interner)
      : ConditionBackend(interner) {}

  const char* name() const override { return "dd"; }
  bool disjunctive() const override { return true; }

  CondId FromConj(ConjId id) override;
  CondId And(CondId a, CondId b) override;
  CondId Or(CondId a, CondId b) override;
  bool Implies(CondId a, CondId b) override;
  bool Satisfiable(CondId id) override;
  bool SatisfiableWith(ConjId global, CondId id) override;
  bool TautologyUnder(ConjId global, CondId id) override;
  void AppendDisjuncts(CondId id, std::vector<ConjId>* out) override;

  /// Negation (sentinels swap, internal structure is shared). Exposed for
  /// tests; Implies/TautologyUnder use it internally.
  CondId Not(CondId id);

  /// Diagram nodes allocated so far (excluding the two sentinels).
  size_t num_nodes() const { return nodes_.size(); }

 private:
  enum class Op : uint32_t { kAnd, kOr, kNot, kImplies, kSat };

  struct Node {
    AtomId var;  // decision atom; strictly increases along any path
    CondId lo;   // successor when the atom is false
    CondId hi;   // successor when the atom is true
  };

  struct NodeKey {
    AtomId var;
    CondId lo;
    CondId hi;
    bool operator==(const NodeKey& o) const {
      return var == o.var && lo == o.lo && hi == o.hi;
    }
  };
  struct NodeKeyHash {
    size_t operator()(const NodeKey& k) const noexcept {
      uint64_t h = k.var;
      h = h * 1099511628211ull ^ k.lo;
      h = h * 1099511628211ull ^ k.hi;
      return static_cast<size_t>(h);
    }
  };

  struct OpKey {
    Op op;
    CondId a;
    CondId b;
    bool operator==(const OpKey& o) const {
      return op == o.op && a == o.a && b == o.b;
    }
  };
  struct OpKeyHash {
    size_t operator()(const OpKey& k) const noexcept {
      uint64_t h = static_cast<uint32_t>(k.op);
      h = h * 1099511628211ull ^ k.a;
      h = h * 1099511628211ull ^ k.b;
      return static_cast<size_t>(h);
    }
  };

  static constexpr size_t kNumShards = 16;
  static constexpr AtomId kTerminalVar = UINT32_MAX;

  template <typename Key, typename Value, typename Hash>
  struct ShardedMap {
    struct Shard {
      mutable std::shared_mutex mutex;
      std::unordered_map<Key, Value, Hash> map;
    };
    Shard shards[kNumShards];
    Shard& ShardFor(size_t hash) { return shards[hash % kNumShards]; }
  };

  std::shared_lock<std::shared_mutex> ReadLock(std::shared_mutex& m) const {
    std::shared_lock<std::shared_mutex> lock(m, std::defer_lock);
    if (interner().shared()) lock.lock();
    return lock;
  }
  std::unique_lock<std::shared_mutex> WriteLock(std::shared_mutex& m) const {
    std::unique_lock<std::shared_mutex> lock(m, std::defer_lock);
    if (interner().shared()) lock.lock();
    return lock;
  }
  std::unique_lock<std::mutex> StorageLock(std::mutex& m) const {
    std::unique_lock<std::mutex> lock(m, std::defer_lock);
    if (interner().shared()) lock.lock();
    return lock;
  }

  BindingEnv& ScratchEnv();

  const Node& NodeOf(CondId id) const { return nodes_[id - 2]; }
  static bool IsTerminal(CondId id) { return id <= kFalseCond; }
  AtomId VarOf(CondId id) const {
    return IsTerminal(id) ? kTerminalVar : NodeOf(id).var;
  }

  /// The diagram's variable order: strict "a sits above b". Semantic, not
  /// AtomId order — atoms are interned in derivation order, which scatters
  /// the atoms constraining one null across the id space and blows the
  /// diagrams up. Keying lexicographically on (lhs, rhs, is_equality)
  /// groups them instead: atoms are normalized lhs <= rhs with constants
  /// below variables, so all the `c = x` / `c != x` literals binding one
  /// constant sit adjacent near the top, where their mutual exclusions
  /// collapse paths immediately. Empirically this is the winner on the
  /// conditioned-TC diversity sweep: ~20x fewer Apply calls than grouping
  /// by the variable side (rhs first), which interleaves the constants each
  /// null is tested against and keeps the disjuncts from sharing suffixes.
  bool VarBefore(AtomId a, AtomId b) const;

  /// Reduced, hash-consed node constructor: lo == hi collapses, otherwise
  /// the unique-table guarantees one id per (var, lo, hi).
  CondId MakeNode(AtomId var, CondId lo, CondId hi);

  /// Shared binary Apply for kAnd/kOr (terminal rules per op, memoized on
  /// the canonical (min, max) pair — both are commutative).
  CondId Apply(Op op, CondId a, CondId b);

  /// Op-cache read / write.
  bool CacheLookup(const OpKey& key, CondId* out);
  void CacheStore(const OpKey& key, CondId value);

  /// Theory-pruned path DFS under the assertions already in `env`.
  bool SatSearch(CondId id, BindingEnv& env);

  void ExpandPaths(CondId id, BindingEnv& env, std::vector<CondAtom>* path,
                   std::unordered_set<ConjId>* seen, std::vector<ConjId>* out);

  StableStore<Node> nodes_;
  std::mutex node_storage_mutex_;
  ShardedMap<NodeKey, CondId, NodeKeyHash> unique_;
  ShardedMap<OpKey, CondId, OpKeyHash> ops_;  // verdicts stored as 0/1
  ShardedMap<ConjId, CondId, std::hash<ConjId>> from_conj_;

  BindingEnv scratch_env_;  // shared mode uses a thread_local instead
};

}  // namespace pw

#endif  // PW_CONDITION_DD_BACKEND_H_
