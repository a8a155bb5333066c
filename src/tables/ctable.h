// Conditioned tables — the paper's representation hierarchy.
//
// A c-table (Section 2.2) is a table of tuples over constants and variables,
// a *global* condition (a conjunction attached to the whole table) and a
// *local* condition per row. The other representations are special cases:
//
//   Codd-table : no conditions, every variable occurs at most once
//   e-table    : no conditions, variables may repeat (equalities incorporated)
//   i-table    : global condition of inequality atoms only, no repeats
//   g-table    : arbitrary global conjunction (equalities are incorporated
//                into the matrix on normalization), no local conditions
//   c-table    : everything
//
// `CTable::Kind()` classifies an arbitrary c-table into the *least* class of
// this hierarchy that contains it.

#ifndef PW_TABLES_CTABLE_H_
#define PW_TABLES_CTABLE_H_

#include <cassert>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "condition/conjunction.h"
#include "condition/interner.h"
#include "core/relation.h"
#include "core/tuple.h"
#include "tables/tuple_index.h"

namespace pw {

class Instance;
class SymbolTable;

/// The representation hierarchy, ordered by expressiveness.
enum class TableKind {
  kCoddTable = 0,
  kETable = 1,
  kITable = 2,
  kGTable = 3,
  kCTable = 4,
};

/// Human-readable kind name ("Codd-table", "e-table", ...).
std::string ToString(TableKind kind);

/// One row of a c-table: a tuple plus its local condition.
///
/// The condition has two synchronized representations: the materialized
/// `Conjunction` (the source of truth, meaningful independent of any
/// interner) and a lazily memoized interned id. `LocalId()` interns once and
/// then costs a stamp comparison; the cache is keyed on the interner's
/// generation stamp, so a `ConditionInterner::Clear()` (or asking a
/// different interner) transparently re-interns instead of returning a stale
/// id. Rows produced by interned pipelines seed the cache at construction,
/// so conditions cross layer boundaries without being re-canonicalized.
///
/// The id cache is mutable state behind a const row: a row must not be
/// *lazily* interned from multiple threads concurrently. Sharing read-only
/// rows across threads is still possible by warming the cache first —
/// `CTable::PrepareForSharing` interns every row against a shared interner,
/// after which concurrent `LocalId` calls with that interner are pure
/// stamp-match reads. Otherwise give each evaluator thread its own copy.
class CRow {
 public:
  CRow() = default;
  explicit CRow(Tuple tuple) : tuple(std::move(tuple)) {}
  CRow(Tuple tuple, Conjunction local)
      : tuple(std::move(tuple)), local_(std::move(local)) {}

  /// Builds a row whose condition is already interned in `interner`; the
  /// materialized form is the canonical resolution and the id cache starts
  /// hot.
  CRow(Tuple tuple, ConjId local, ConditionInterner& interner)
      : tuple(std::move(tuple)),
        local_(interner.Resolve(local)),
        local_id_(local),
        local_stamp_(interner.stamp()) {}

  /// The materialized local condition (default: true).
  const Conjunction& local() const { return local_; }

  /// Replaces the local condition, dropping the memoized id.
  void set_local(Conjunction local) {
    local_ = std::move(local);
    local_stamp_ = 0;
  }

  /// The interned id of the local condition in `interner`, memoized against
  /// the interner's generation stamp.
  ConjId LocalId(ConditionInterner& interner) const {
    if (local_stamp_ != interner.stamp()) {
      local_id_ = interner.Intern(local_);
      local_stamp_ = interner.stamp();
    }
    return local_id_;
  }

  Tuple tuple;

  friend bool operator==(const CRow& a, const CRow& b) {
    return a.tuple == b.tuple && a.local_ == b.local_;
  }

 private:
  Conjunction local_;  // default: true
  mutable ConjId local_id_ = 0;
  mutable uint64_t local_stamp_ = 0;  // 0: no id cached
};

/// A conditioned table of fixed arity.
class CTable {
 public:
  explicit CTable(int arity = 0) : arity_(arity) {}

  // Copies carry the logical state and the stamped id caches but not the
  // lazily-built tuple indexes (the copy rebuilds its own on first use).
  CTable(const CTable& other);
  CTable& operator=(const CTable& other);
  CTable(CTable&&) = default;
  CTable& operator=(CTable&&) = default;

  int arity() const { return arity_; }
  size_t num_rows() const { return rows_.size(); }
  const std::vector<CRow>& rows() const { return rows_; }
  const CRow& row(size_t i) const { return rows_[i]; }
  const Conjunction& global() const { return global_; }

  /// True after PrepareForSharing: the table is published to concurrent
  /// readers and must not be mutated (debug-asserted by every mutator).
  /// Copies of a frozen table are mutable again.
  bool frozen() const { return frozen_; }

  /// Freezes the table for sharing across reader threads: memoizes the
  /// global and every row condition against `interner` (so concurrent
  /// GlobalId/LocalId calls with it are read-only stamp matches) and
  /// allocates the index state eagerly (so concurrent Index() calls never
  /// race the lazy allocation). After this, mutators debug-assert. A no-op
  /// if already frozen under the same interner stamp.
  void PrepareForSharing(ConditionInterner& interner);

  /// Appends a row with local condition `true`.
  void AddRow(Tuple tuple);

  /// Appends a conditioned row.
  void AddRow(Tuple tuple, Conjunction local);

  /// Appends a row whose condition is already interned in `interner`; the
  /// row's id cache starts hot, so downstream consumers never re-canonicalize
  /// it.
  void AddRow(Tuple tuple, ConjId local, ConditionInterner& interner);

  /// Appends a copy of an existing row as-is, preserving its memoized
  /// condition-id cache — the cache-keeping path for operators that carry
  /// rows between tables unchanged (union, relation refs).
  void AddRow(CRow row);

  /// Replaces the row storage wholesale. Bumps the index stamp, so cached
  /// tuple indexes rebuild on next use — unlike AddRow appends, which let
  /// them extend incrementally. The in-place update path (tables/updates.h)
  /// uses this only when a delete actually rewrites rows; untouched tables
  /// keep their caches.
  void ReplaceRows(std::vector<CRow> rows);

  /// Replaces the global condition.
  void SetGlobal(Conjunction global) {
    assert(!frozen_ && "mutating a table frozen for sharing");
    global_ = std::move(global);
    global_stamp_ = 0;
  }

  /// Replaces the global condition when its interned id is already known
  /// (`id` must be the id `global` interns to in `interner`); the table's
  /// global-id cache starts hot.
  void SetGlobal(Conjunction global, ConjId id, ConditionInterner& interner) {
    assert(!frozen_ && "mutating a table frozen for sharing");
    global_ = std::move(global);
    global_id_ = id;
    global_stamp_ = interner.stamp();
  }

  /// Conjoins `atom` onto the global condition.
  void AddGlobalAtom(const CondAtom& atom) {
    assert(!frozen_ && "mutating a table frozen for sharing");
    global_.Add(atom);
    global_stamp_ = 0;
  }

  /// The interned id of the global condition, memoized against the
  /// interner's generation stamp (the same contract as CRow::LocalId).
  ConjId GlobalId(ConditionInterner& interner) const {
    if (global_stamp_ != interner.stamp()) {
      global_id_ = interner.Intern(global_);
      global_stamp_ = interner.stamp();
    }
    return global_id_;
  }

  /// The lazily-built hash index of the rows' tuples on `columns` (the
  /// shared join-acceleration layer, tables/tuple_index.h): built on first
  /// use, extended incrementally as rows are appended, and reused across
  /// queries. `built` (optional) reports whether this call built or rebuilt
  /// the index from scratch; `extended` (optional) whether it caught up on
  /// appended rows instead — never both, so callers can count builds and
  /// extends separately. The reference is owned by the table; later
  /// mutations extend or rebuild it in place, so snapshot candidate lists
  /// before mutating. The cache itself is mutex-guarded, so concurrent
  /// Index() calls on a frozen table are safe (the rows can't change, hence
  /// a built index is immutable and probes on the returned reference are
  /// lock-free); on a table still being mutated the usual single-thread
  /// ownership rules apply.
  const TupleIndex& Index(const std::vector<int>& columns,
                          bool* built = nullptr,
                          bool* extended = nullptr) const;

  /// Builds a table whose rows are the facts of `relation` (a complete
  /// relation is the degenerate c-table with no variables).
  static CTable FromRelation(const Relation& relation);

  /// Least class of the hierarchy containing this table.
  TableKind Kind() const;

  /// True iff some row carries a local condition (Kind() == kCTable),
  /// decided by one pass over the rows.
  bool HasLocalConditions() const;

  /// All variables occurring in tuples or conditions, sorted, deduplicated.
  std::vector<VarId> Variables() const;

  /// All constants occurring in tuples or conditions, sorted, deduplicated.
  std::vector<ConstId> Constants() const;

  /// True iff no variable occurs (then rep() is a singleton if the global
  /// condition is a tautology over ground atoms).
  bool IsGround() const;

  /// The matrix: rows stripped of their conditions, as tuples.
  std::vector<Tuple> Matrix() const;

  /// Applies a variable-to-term substitution to every tuple and condition.
  CTable Substitute(const std::unordered_map<VarId, Term>& substitution) const;

  /// Normal form: incorporates every equality the global condition forces
  /// into the matrix (substituting canonical representatives), drops
  /// trivially-true atoms, and keeps the remaining global inequalities.
  /// Preserves rep(). If the global condition is unsatisfiable the result is
  /// marked by a `false` global condition atom.
  CTable Normalized() const;

  /// Minimization on top of Normalized(): removes rows whose local
  /// conditions are unsatisfiable together with the global condition, drops
  /// local atoms implied by the global condition, and removes rows subsumed
  /// by a duplicate with an implied-or-equal local condition. Preserves
  /// rep().
  CTable Minimized() const;

  friend bool operator==(const CTable& a, const CTable& b) {
    return a.arity_ == b.arity_ && a.rows_ == b.rows_ &&
           a.global_ == b.global_;
  }

  std::string ToString(const SymbolTable* symbols = nullptr) const;

 private:
  int arity_;
  std::vector<CRow> rows_;
  Conjunction global_;
  mutable ConjId global_id_ = 0;
  mutable uint64_t global_stamp_ = 0;  // 0: no id cached
  // Stamp of the row storage for the index cache: appends keep it (indexes
  // catch up incrementally), wholesale row replacement bumps it (indexes
  // rebuild on next use).
  uint64_t rows_stamp_ = 1;
  // The lazily-built index cache behind its guard. Heap-allocated so the
  // table stays movable (std::mutex is not); allocated up front by
  // PrepareForSharing so concurrent readers never race the lazy branch.
  struct IndexState {
    std::mutex mutex;
    TupleIndexCache cache;
  };
  mutable std::unique_ptr<IndexState> indexes_;
  // Sharing state (see PrepareForSharing). Reset on copy.
  bool frozen_ = false;
  uint64_t warmed_stamp_ = 0;
};

/// An n-vector of c-tables (Definition 2.2 generalization). The paper takes
/// the variable sets of member tables to be disjoint; we do not enforce this
/// — shared variables simply behave as if linked by equality conditions.
/// The represented set of worlds uses the conjunction of all members' global
/// conditions.
///
/// Tables are held behind shared pointers with copy-on-write semantics:
/// copying a CDatabase is a cheap shallow copy (the basis of the snapshot
/// reads in tables/snapshot.h), and `mutable_table` clones a table lazily
/// when it is shared with another copy. Value semantics are unchanged for
/// callers — mutating one copy never affects another.
class CDatabase {
 public:
  CDatabase() = default;
  explicit CDatabase(std::vector<CTable> tables);

  /// Wraps a single table.
  explicit CDatabase(CTable table) { AddTable(std::move(table)); }

  size_t num_tables() const { return tables_.size(); }
  const CTable& table(size_t i) const { return *tables_[i]; }

  /// The table, cloned first if it is shared with another CDatabase copy
  /// (copy-on-write). The reference is invalidated by the next copy-and-
  /// mutate cycle, so re-fetch it rather than holding it across copies.
  CTable& mutable_table(size_t i);

  size_t AddTable(CTable table);

  /// Freezes every table for concurrent readers (see
  /// CTable::PrepareForSharing); tables already frozen under the current
  /// interner stamp are skipped, so incremental re-publication after a
  /// mutation only warms the cloned tables.
  void PrepareForSharing(ConditionInterner& interner);

  /// The conjunction of all member global conditions.
  Conjunction CombinedGlobal() const;

  /// The interned id of the combined global condition: the memoized And-fold
  /// of the members' cached GlobalIds (no re-canonicalization when the
  /// members' ids are already hot).
  ConjId CombinedGlobalId(ConditionInterner& interner) const;

  /// Union of member variable sets, sorted, deduplicated.
  std::vector<VarId> Variables() const;

  /// Union of member constant sets, sorted, deduplicated.
  std::vector<ConstId> Constants() const;

  /// Arities of member tables.
  std::vector<int> Arities() const;

  /// Worst member kind (the database is as expressive as its worst table).
  TableKind Kind() const;

  /// True iff some member table has local conditions (Kind() == kCTable),
  /// without Kind()'s variable-sharing pass.
  bool HasLocalConditions() const;

  /// Builds the degenerate c-database representing exactly `instance`.
  static CDatabase FromInstance(const Instance& instance);

  std::string ToString(const SymbolTable* symbols = nullptr) const;

 private:
  std::vector<std::shared_ptr<CTable>> tables_;
};

}  // namespace pw

#endif  // PW_TABLES_CTABLE_H_
