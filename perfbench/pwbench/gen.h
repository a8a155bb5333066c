// Seeded input generators of the three workloads, and the benchmark-side
// models their oracles read. The library sees only the generated table text
// (parsed by ParseCDatabase), the views, and the request arguments; nothing
// here calls a measured code path.

#ifndef PWBENCH_GEN_H_
#define PWBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/instance.h"
#include "decision/complexity_map.h"
#include "decision/view.h"
#include "pwbench/common.h"

namespace pwbench {

// --- serve_snapshot ---------------------------------------------------------

/// One arity-2 c-table: ground rows plus rows that carry one of a few shared
/// nulls, half of them with a local `null != constant`.
struct ServeNullRow {
  int null_index = 0;  // which shared null (text name ?n<k>)
  int null_pos = 0;    // 0: (null, constant); 1: (constant, null)
  int constant = 0;
  int neq = -1;        // the local `null != neq`, -1 for none
};

struct ServeInput {
  int num_constants = 0;  // reader facts use constants [0, num_constants)
  int writer_base = 0;    // writer facts start with a constant >= this
  std::vector<std::pair<int, int>> ground;
  std::vector<ServeNullRow> null_rows;
  std::string text;
};

inline constexpr int kServeRows = 2000;
inline constexpr int kServeConstants = 1000;
inline constexpr int kServeNulls = 8;
inline constexpr int kServeWriterConstants = 200;
inline constexpr int kServeWriterFacts = 50;
inline constexpr int kServeGuardConstants = 10;

ServeInput GenerateServe(uint64_t seed);

/// Exact possibility/certainty of a point fact in the generated table, from
/// the generator's own rows: possible iff some row unifies with the fact and
/// its local condition holds under that binding; certain iff an
/// unconditioned ground row equals it.
class ServeModel {
 public:
  explicit ServeModel(const ServeInput& input);
  bool Possible(int a, int b) const;
  bool Certain(int a, int b) const;

 private:
  std::unordered_map<uint64_t, bool> ground_;
  // (position, constant) -> the `!=` constants of the null rows there (-1
  // for an unconditioned row).
  std::unordered_map<uint64_t, std::vector<int>> null_rows_;
};

/// One reader request: possibility (true) or certainty (false) of a point.
struct ServeRead {
  bool possibility = true;
  int a = 0;
  int b = 0;
};

/// The closed-loop stream of one reader thread: 1 possibility : 1 certainty
/// requests per block; facts drawn 40% from ground rows, 30% matching a null
/// row, 30% uniformly at random.
class ServeReadStream {
 public:
  ServeReadStream(const ServeInput& input, uint64_t seed, int thread);
  ServeRead Next();

 private:
  const ServeInput* input_;
  MixStream kind_;
  Rng rng_;
};

struct ServeWrite {
  bool insert = true;
  int a = 0;
  int b = 0;
};

/// The writer's schedule: 3 inserts : 1 delete per block. Writer facts have
/// their first constant at or past writer_base, so no write changes the
/// answer to any reader fact. Inserts add another row for one of
/// kServeWriterFacts facts; deletes alternate between removing every row of
/// one of them and guarding a null row (null, c) with `null != w` for one of
/// kServeGuardConstants constants w. Both pools are small, so the table
/// reaches a steady size and shape within seconds instead of growing for
/// the whole run.
std::vector<ServeWrite> GenerateServeWrites(const ServeInput& input,
                                            uint64_t seed, size_t count);

// --- view_maintenance -------------------------------------------------------

/// A base row of the edge table: node ids, or kNull for the shared null,
/// with a conjunction of `null = c` / `null != c` atoms.
struct EdgeAtom {
  bool equality = false;
  int constant = 0;
};
struct EdgeRow {
  int a = 0;
  int b = 0;
  std::vector<EdgeAtom> cond;
};
inline constexpr int kNull = -1;

struct ViewInput {
  int nodes = 0;
  std::vector<EdgeRow> rows;
  std::string text;
};

inline constexpr int kViewNodes = 24;
inline constexpr int kViewRoutedEdges = 2;

/// A DAG on kViewNodes nodes: two forward edges per node (fewer near the
/// end), at most 6 ahead, plus kViewRoutedEdges edges routed through the one
/// shared null (i -> null -> j).
ViewInput GenerateView(uint64_t seed);

/// The benchmark's own model of the edge table under the update semantics
/// (insert adds the fact to every world, delete removes it from every
/// world), kept at row level so that each world is a plain edge set.
class EdgeModel {
 public:
  explicit EdgeModel(const ViewInput& input);
  void Insert(int a, int b);
  void InsertIf(int a, int b, int null_equals);
  void Delete(int a, int b);
  /// Ground edge tuples currently present in some row.
  std::vector<std::pair<int, int>> GroundEdges() const;
  /// The values worth giving the null: every node, plus one fresh constant.
  std::vector<int> NullValues() const;
  /// The edge set of the world where the null is `value`.
  std::vector<std::pair<int, int>> World(int value) const;
  /// A constant no node uses: the null's value in the worlds where it
  /// equals no node.
  int fresh() const { return nodes_ + 1000; }

 private:
  int nodes_;
  std::vector<EdgeRow> rows_;
};

/// Nodes reachable from `s` by a path of at least one edge.
std::vector<int> ReachableFrom(const std::vector<std::pair<int, int>>& edges,
                               int s, int max_node);

enum class ViewOpKind { kQuery, kInsert, kInsertIf, kDelete };
struct ViewOp {
  ViewOpKind kind = ViewOpKind::kQuery;
  int a = 0;  // the query source, or the edge
  int b = 0;
  int c = 0;  // InsertIf: the null's required value
};

/// 12 queries : 2 inserts : 2 conditional inserts : 4 deletes per block;
/// query sources cycle through every node in a seeded order.
/// Inserts add a missing forward edge and deletes a live one, so the edge
/// count stays level over a run.
/// The stream reads the model for the live edges a delete may pick, so the
/// caller applies each op to the model before drawing the next.
class ViewOpStream {
 public:
  ViewOpStream(int nodes, uint64_t seed);
  ViewOp Next(const EdgeModel& model);

 private:
  int nodes_;
  MixStream kind_;
  MixStream source_;  // query sources: every node once per block
  Rng rng_;
};

// --- decide_hard ------------------------------------------------------------

/// One hardness-reduction request with its oracle answer.
struct HardInstance {
  std::string type;    // memb, poss, cert, cont
  std::string family;  // e.g. memb.etable, cont.thm42_1
  std::string text;      // the (lhs) database in the text format
  std::string rhs_text;  // containment: the rhs database
  pw::View view;
  pw::View rhs_view;
  pw::Instance instance;                 // memb instance / poss pattern
  std::vector<pw::LocatedFact> pattern;  // cert pattern
  bool expected = false;
  pw::ComplexityClass predicted = pw::ComplexityClass::kPTime;
};

/// Instance `index` of the seeded stream (the family follows a
/// block-stratified mix; each instance has its own generator seed). The
/// oracle runs here — the reduction's source solver.
HardInstance GenerateHard(uint64_t seed, uint64_t index);

}  // namespace pwbench

#endif  // PWBENCH_GEN_H_
