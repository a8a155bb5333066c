// Relations: finite sets of facts of a fixed arity.

#ifndef PW_CORE_RELATION_H_
#define PW_CORE_RELATION_H_

#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "core/tuple.h"

namespace pw {

class SymbolTable;

/// A finite set of facts of fixed arity. Set semantics: duplicate inserts are
/// no-ops. Iteration order is the lexicographic order of facts, so two equal
/// relations iterate identically and operator== is structural.
class Relation {
 public:
  /// An empty relation of the given arity (default arity 0: the relation that
  /// can hold only the empty fact).
  explicit Relation(int arity = 0) : arity_(arity) {}

  /// Builds a relation from a list of facts; all must have arity `arity`.
  Relation(int arity, std::initializer_list<Fact> facts);

  /// Builds a relation from a vector of facts; all must have arity `arity`.
  Relation(int arity, const std::vector<Fact>& facts);

  int arity() const { return arity_; }
  size_t size() const { return facts_.size(); }
  bool empty() const { return facts_.empty(); }

  /// Inserts a fact. Returns true if newly inserted. Precondition: the fact
  /// has the relation's arity.
  bool Insert(const Fact& fact);

  /// Inserts a ground tuple. Precondition: IsGround(tuple).
  bool Insert(const Tuple& tuple) { return Insert(ToFact(tuple)); }

  bool Contains(const Fact& fact) const { return facts_.count(fact) > 0; }

  /// True iff every fact of `other` is in this relation.
  bool ContainsAll(const Relation& other) const;

  /// Set union; arities must agree.
  Relation UnionWith(const Relation& other) const;

  /// All constants occurring in some fact.
  std::vector<ConstId> Constants() const;

  auto begin() const { return facts_.begin(); }
  auto end() const { return facts_.end(); }

  /// The facts as a sorted vector.
  std::vector<Fact> ToVector() const;

  friend bool operator==(const Relation&, const Relation&) = default;
  friend auto operator<=>(const Relation&, const Relation&) = default;

  /// Multi-line rendering, one fact per line.
  std::string ToString(const SymbolTable* symbols = nullptr) const;

 private:
  int arity_;
  std::set<Fact> facts_;
};

}  // namespace pw

#endif  // PW_CORE_RELATION_H_
