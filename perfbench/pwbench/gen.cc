#include "pwbench/gen.h"

#include <algorithm>
#include <random>
#include <set>
#include <sstream>

#include "decision/possibility.h"
#include "reductions/colorability.h"
#include "reductions/forall_exists.h"
#include "reductions/satisfiability.h"
#include "reductions/tautology.h"
#include "solvers/dnf_tautology.h"
#include "solvers/graph_color.h"
#include "solvers/qbf.h"
#include "solvers/sat.h"
#include "tables/text_format.h"
#include "workload/random_gen.h"

namespace pwbench {

namespace {

uint64_t Key(int a, int b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  Rng r(seed * 0x9e3779b97f4a7c15ull + salt);
  return r.Next();
}

}  // namespace

// --- serve_snapshot ---------------------------------------------------------

ServeInput GenerateServe(uint64_t seed) {
  Rng rng(Mix(seed, 1));
  ServeInput in;
  in.num_constants = kServeConstants;
  in.writer_base = kServeConstants;
  const int null_rows = kServeRows / 20;  // 5%
  std::set<uint64_t> seen;
  while (static_cast<int>(in.ground.size()) < kServeRows - null_rows) {
    int a = static_cast<int>(rng.Below(kServeConstants));
    int b = static_cast<int>(rng.Below(kServeConstants));
    if (seen.insert(Key(a, b)).second) in.ground.push_back({a, b});
  }
  for (int i = 0; i < null_rows; ++i) {
    ServeNullRow r;
    r.null_index = static_cast<int>(rng.Below(kServeNulls));
    r.null_pos = static_cast<int>(rng.Below(2));
    r.constant = static_cast<int>(rng.Below(kServeConstants));
    if (i % 2 == 0) r.neq = static_cast<int>(rng.Below(kServeConstants));
    in.null_rows.push_back(r);
  }
  // Rows in a seeded order, ground and null rows interleaved.
  std::vector<int> order(in.ground.size() + in.null_rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  Shuffle(order, rng);
  std::ostringstream text;
  text << "table arity 2\n";
  const int ground = static_cast<int>(in.ground.size());
  for (int i : order) {
    if (i < ground) {
      text << "row " << in.ground[i].first << " " << in.ground[i].second
           << "\n";
      continue;
    }
    const ServeNullRow& r = in.null_rows[static_cast<size_t>(i - ground)];
    std::string null = "?n" + std::to_string(r.null_index);
    if (r.null_pos == 0) {
      text << "row " << null << " " << r.constant;
    } else {
      text << "row " << r.constant << " " << null;
    }
    if (r.neq >= 0) text << " : " << null << " != " << r.neq;
    text << "\n";
  }
  in.text = text.str();
  return in;
}

ServeModel::ServeModel(const ServeInput& input) {
  for (const auto& [a, b] : input.ground) ground_[Key(a, b)] = true;
  for (const ServeNullRow& r : input.null_rows) {
    null_rows_[Key(r.null_pos, r.constant)].push_back(r.neq);
  }
}

bool ServeModel::Possible(int a, int b) const {
  if (Certain(a, b)) return true;
  // (null, b) binds the null to a; (a, null) binds it to b.
  for (const auto& [pos, bound, other] :
       {std::tuple{0, a, b}, std::tuple{1, b, a}}) {
    auto it = null_rows_.find(Key(pos, other));
    if (it == null_rows_.end()) continue;
    for (int neq : it->second) {
      if (neq != bound) return true;
    }
  }
  return false;
}

bool ServeModel::Certain(int a, int b) const {
  return ground_.count(Key(a, b)) > 0;
}

ServeReadStream::ServeReadStream(const ServeInput& input, uint64_t seed,
                                 int thread)
    : input_(&input),
      kind_({1, 1}, Mix(seed, 100 + static_cast<uint64_t>(thread))),
      rng_(Mix(seed, 200 + static_cast<uint64_t>(thread))) {}

ServeRead ServeReadStream::Next() {
  ServeRead r;
  r.possibility = kind_.Next() == 0;
  uint64_t pick = rng_.Below(10);
  const int n = input_->num_constants;
  if (pick < 4) {
    const auto& g = input_->ground[rng_.Below(input_->ground.size())];
    r.a = g.first;
    r.b = g.second;
  } else if (pick < 7) {
    const ServeNullRow& row =
        input_->null_rows[rng_.Below(input_->null_rows.size())];
    int other = static_cast<int>(rng_.Below(static_cast<uint64_t>(n)));
    if (row.null_pos == 0) {
      r.a = other;
      r.b = row.constant;
    } else {
      r.a = row.constant;
      r.b = other;
    }
  } else {
    r.a = static_cast<int>(rng_.Below(static_cast<uint64_t>(n)));
    r.b = static_cast<int>(rng_.Below(static_cast<uint64_t>(n)));
  }
  return r;
}

std::vector<ServeWrite> GenerateServeWrites(const ServeInput& input,
                                            uint64_t seed, size_t count) {
  MixStream kind({3, 1}, Mix(seed, 300));
  Rng rng(Mix(seed, 301));
  auto writer_constant = [&](int range) {
    return input.writer_base + static_cast<int>(rng.Below(
                                   static_cast<uint64_t>(range)));
  };
  std::vector<std::pair<int, int>> pool;
  for (int i = 0; i < kServeWriterFacts; ++i) {
    pool.push_back({writer_constant(kServeWriterConstants),
                    static_cast<int>(rng.Below(
                        static_cast<uint64_t>(input.num_constants)))});
  }
  std::vector<int> guard_targets;  // constants c of the rows (null, c)
  for (const ServeNullRow& r : input.null_rows) {
    if (r.null_pos == 0) guard_targets.push_back(r.constant);
  }
  std::vector<ServeWrite> out;
  bool guard_next = false;
  for (size_t i = 0; i < count; ++i) {
    ServeWrite w;
    w.insert = kind.Next() == 0;
    if (!w.insert && guard_next && !guard_targets.empty()) {
      w.a = writer_constant(kServeGuardConstants);
      w.b = guard_targets[rng.Below(guard_targets.size())];
    } else {
      std::tie(w.a, w.b) = pool[rng.Below(pool.size())];
    }
    if (!w.insert) guard_next = !guard_next;
    out.push_back(w);
  }
  return out;
}

// --- view_maintenance -------------------------------------------------------

ViewInput GenerateView(uint64_t seed) {
  Rng rng(Mix(seed, 2));
  ViewInput in;
  in.nodes = kViewNodes;
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < in.nodes; ++i) {
    std::vector<int> ahead;
    for (int d = 1; d <= 6 && i + d < in.nodes; ++d) ahead.push_back(i + d);
    Shuffle(ahead, rng);
    for (size_t k = 0; k < ahead.size() && k < 2; ++k) {
      edges.push_back({i, ahead[k]});
    }
  }
  for (auto [i, j] : edges) in.rows.push_back({i, j, {}});
  // The null routes kViewRoutedEdges extra edges i -> null -> i + 3 at fixed,
  // evenly spaced nodes: where the null sits decides much of the cost, so it
  // is the same for every seed. Only ground edges are ever deleted, so these
  // rows stay for the whole run.
  for (int k = 1; k <= kViewRoutedEdges; ++k) {
    int i = k * in.nodes / (kViewRoutedEdges + 1);
    in.rows.push_back({i, kNull, {}});
    in.rows.push_back({kNull, i + 3, {}});
  }
  std::ostringstream text;
  text << "table arity 2\n";
  auto term = [](int v) {
    return v == kNull ? std::string("?x") : std::to_string(v);
  };
  for (const EdgeRow& r : in.rows) {
    text << "row " << term(r.a) << " " << term(r.b) << "\n";
  }
  in.text = text.str();
  return in;
}

EdgeModel::EdgeModel(const ViewInput& input)
    : nodes_(input.nodes), rows_(input.rows) {}

void EdgeModel::Insert(int a, int b) { rows_.push_back({a, b, {}}); }

void EdgeModel::InsertIf(int a, int b, int null_equals) {
  rows_.push_back({a, b, {{true, null_equals}}});
}

void EdgeModel::Delete(int a, int b) {
  std::vector<EdgeRow> next;
  for (EdgeRow r : rows_) {
    if (r.a != kNull && r.b != kNull) {
      if (r.a == a && r.b == b) continue;  // the fact itself: gone
    } else if (r.a == kNull && r.b != kNull) {
      if (r.b == b) r.cond.push_back({false, a});  // survives iff null != a
    } else if (r.a != kNull && r.b == kNull) {
      if (r.a == a) r.cond.push_back({false, b});
    } else if (a == b) {
      r.cond.push_back({false, a});  // (null, null)
    }
    next.push_back(std::move(r));
  }
  rows_ = std::move(next);
}

std::vector<std::pair<int, int>> EdgeModel::GroundEdges() const {
  std::set<std::pair<int, int>> out;
  for (const EdgeRow& r : rows_) {
    if (r.a != kNull && r.b != kNull) out.insert({r.a, r.b});
  }
  return {out.begin(), out.end()};
}

std::vector<int> EdgeModel::NullValues() const {
  std::vector<int> v;
  for (int i = 0; i < nodes_; ++i) v.push_back(i);
  v.push_back(fresh());
  return v;
}

std::vector<std::pair<int, int>> EdgeModel::World(int value) const {
  std::vector<std::pair<int, int>> edges;
  for (const EdgeRow& r : rows_) {
    bool holds = true;
    for (const EdgeAtom& atom : r.cond) {
      if ((value == atom.constant) != atom.equality) holds = false;
    }
    if (!holds) continue;
    edges.push_back({r.a == kNull ? value : r.a, r.b == kNull ? value : r.b});
  }
  return edges;
}

std::vector<int> ReachableFrom(const std::vector<std::pair<int, int>>& edges,
                               int s, int max_node) {
  std::vector<std::vector<int>> adj(static_cast<size_t>(max_node) + 1);
  for (const auto& [a, b] : edges) adj[static_cast<size_t>(a)].push_back(b);
  std::vector<char> seen(adj.size(), 0);
  std::vector<int> stack;
  for (int b : adj[static_cast<size_t>(s)]) {
    if (!seen[static_cast<size_t>(b)]) {
      seen[static_cast<size_t>(b)] = 1;
      stack.push_back(b);
    }
  }
  while (!stack.empty()) {
    int u = stack.back();
    stack.pop_back();
    for (int b : adj[static_cast<size_t>(u)]) {
      if (!seen[static_cast<size_t>(b)]) {
        seen[static_cast<size_t>(b)] = 1;
        stack.push_back(b);
      }
    }
  }
  std::vector<int> out;
  for (size_t i = 0; i < seen.size(); ++i) {
    if (seen[i]) out.push_back(static_cast<int>(i));
  }
  return out;
}

ViewOpStream::ViewOpStream(int nodes, uint64_t seed)
    : nodes_(nodes),
      kind_({12, 2, 2, 4}, Mix(seed, 400)),
      source_(std::vector<int>(static_cast<size_t>(nodes), 1), Mix(seed, 402)),
      rng_(Mix(seed, 401)) {}

ViewOp ViewOpStream::Next(const EdgeModel& model) {
  ViewOp op;
  op.kind = static_cast<ViewOpKind>(kind_.Next());
  const std::vector<std::pair<int, int>> live = model.GroundEdges();
  // Inserts add a forward edge that is not live, deletes remove a live one:
  // as many of each per block, so the graph keeps its size over a run.
  auto missing_edge = [&] {
    std::vector<std::pair<int, int>> missing;
    for (int a = 0; a < nodes_; ++a) {
      for (int b = a + 1; b <= a + 6 && b < nodes_; ++b) {
        if (!std::binary_search(live.begin(), live.end(), std::pair{a, b})) {
          missing.push_back({a, b});
        }
      }
    }
    return missing.empty() ? std::pair{0, 1} : missing[rng_.Below(missing.size())];
  };
  switch (op.kind) {
    case ViewOpKind::kQuery:
      op.a = source_.Next();
      break;
    case ViewOpKind::kInsert:
      std::tie(op.a, op.b) = missing_edge();
      break;
    case ViewOpKind::kInsertIf:
      std::tie(op.a, op.b) = missing_edge();
      op.c = static_cast<int>(rng_.Below(static_cast<uint64_t>(nodes_)));
      break;
    case ViewOpKind::kDelete:
      if (live.empty()) {
        op.kind = ViewOpKind::kInsert;
        std::tie(op.a, op.b) = missing_edge();
      } else {
        std::tie(op.a, op.b) = live[rng_.Below(live.size())];
      }
      break;
  }
  return op;
}

// --- decide_hard ------------------------------------------------------------

namespace {

// One block of 20 requests: 5 of each type.
const std::vector<std::pair<std::string, int>>& HardMix() {
  static const std::vector<std::pair<std::string, int>> mix = {
      {"memb.etable", 3}, {"memb.itable", 1},   {"memb.view", 1},
      {"poss.etable", 3}, {"poss.itable", 2},   {"cert.ctable", 5},
      {"cont.thm42_1", 1}, {"cont.thm42_2", 1}, {"cont.thm42_3", 1},
      {"cont.thm42_4", 1}, {"cont.thm42_5", 1}};
  return mix;
}

pw::RepKind SideKind(const pw::View& view, const pw::CDatabase& db) {
  return view.is_identity() ? pw::RepKindOf(db) : pw::RepKind::kView;
}

/// The block-stratified family of instance `index`.
std::string HardFamily(uint64_t seed, uint64_t index) {
  std::vector<std::string> block;
  for (const auto& [family, weight] : HardMix()) {
    for (int i = 0; i < weight; ++i) block.push_back(family);
  }
  Rng rng(Mix(seed, 500 + index / block.size()));
  Shuffle(block, rng);
  return block[index % block.size()];
}

}  // namespace

HardInstance GenerateHard(uint64_t seed, uint64_t index) {
  HardInstance h;
  h.family = HardFamily(seed, index);
  h.type = h.family.substr(0, h.family.find('.'));
  Rng rng(Mix(seed, 1000 + index));
  std::mt19937 mt(static_cast<uint32_t>(rng.Next()));
  const std::string& f = h.family;
  if (f == "memb.etable" || f == "memb.itable") {
    pw::Graph g = pw::RandomGraph(rng.Int(8, 12), 0.5, mt);
    pw::MembershipInstance m = f == "memb.etable"
                                   ? pw::ColorabilityToETableMembership(g)
                                   : pw::ColorabilityToITableMembership(g);
    h.text = pw::FormatCDatabase(m.database);
    h.instance = std::move(m.instance);
    h.view = m.view;
    h.expected = pw::IsThreeColorable(g);
    h.predicted = pw::MembershipComplexity(SideKind(h.view, m.database));
  } else if (f == "memb.view") {
    pw::Graph g = pw::RandomThreeColorableGraph(rng.Int(5, 6), 0.5, mt);
    pw::MembershipInstance m = pw::ColorabilityToViewMembership(g);
    h.text = pw::FormatCDatabase(m.database);
    h.instance = std::move(m.instance);
    h.view = m.view;
    h.expected = pw::IsThreeColorable(g);
    h.predicted = pw::MembershipComplexity(pw::RepKind::kView);
  } else if (f == "poss.etable" || f == "poss.itable") {
    int v = rng.Int(3, 4);
    pw::ClausalFormula cnf = pw::RandomClausalFormula(v, 4 * v, 3, mt);
    pw::UnboundedPossibilityInstance p =
        f == "poss.etable" ? pw::SatToETablePossibility(cnf)
                           : pw::SatToITablePossibility(cnf);
    h.text = pw::FormatCDatabase(p.database);
    h.instance = std::move(p.pattern);
    h.expected = pw::IsSatisfiable(cnf);
    h.predicted = pw::PossibilityUnboundedComplexity(pw::RepKindOf(p.database));
  } else if (f == "cert.ctable") {
    int v = rng.Int(8, 11);
    pw::ClausalFormula dnf = pw::RandomClausalFormula(v, 2 * v, 3, mt);
    pw::UniquenessInstance u = pw::TautologyToCTableUniqueness(dnf);
    h.text = pw::FormatCDatabase(u.database);
    h.pattern = pw::ToLocatedFacts(u.instance);
    h.expected = pw::IsDnfTautology(dnf);
    h.predicted = pw::CertaintyComplexity(
        pw::QueryFragment::kPositiveExistential, pw::RepKindOf(u.database));
  } else {
    pw::ContainmentInstance c;
    if (f == "cont.thm42_4") {
      int v = rng.Int(2, 3);
      pw::ClausalFormula dnf = pw::RandomClausalFormula(v, 2 * v, 3, mt);
      c = pw::TautologyToViewInTableContainment(dnf);
      h.expected = pw::IsDnfTautology(dnf);
    } else {
      pw::ForallExistsCnf qbf =
          pw::RandomForallExists(rng.Int(1, 2), rng.Int(1, 2), 2,
                                 mt);
      if (f == "cont.thm42_1") {
        c = pw::ForallExistsToTableInITable(qbf);
      } else if (f == "cont.thm42_2") {
        c = pw::ForallExistsToTableInViewOfTables(qbf);
      } else if (f == "cont.thm42_3") {
        c = pw::ForallExistsToCTableInETables(qbf);
      } else {
        c = pw::ForallExistsToViewOfTablesInETables(qbf);
      }
      h.expected = pw::SolveForallExists(qbf);
    }
    h.text = pw::FormatCDatabase(c.lhs);
    h.rhs_text = pw::FormatCDatabase(c.rhs);
    h.view = c.lhs_view;
    h.rhs_view = c.rhs_view;
    h.predicted = pw::ContainmentComplexity(SideKind(c.lhs_view, c.lhs),
                                            SideKind(c.rhs_view, c.rhs));
  }
  return h;
}

}  // namespace pwbench
