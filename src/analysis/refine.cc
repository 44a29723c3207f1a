#include "analysis/refine.h"

#include <limits>

#include "common/strings.h"

namespace starburst {

namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

/// Returns the int64 value of a literal expression (including a negated
/// int literal), or nullopt when the expression's value is not statically
/// known. A NULL literal returns nullopt as well — callers treat NULL
/// specially.
std::optional<int64_t> LiteralInt(const Expr& expr) {
  if (expr.kind == ExprKind::kLiteral &&
      expr.literal.kind == LiteralValue::Kind::kInt) {
    return expr.literal.int_value;
  }
  if (expr.kind == ExprKind::kUnary && expr.unary_op == UnaryOp::kNeg &&
      expr.left != nullptr) {
    auto inner = LiteralInt(*expr.left);
    if (inner.has_value()) return -*inner;
  }
  return std::nullopt;
}

bool IsNullLiteral(const Expr& expr) {
  return expr.kind == ExprKind::kLiteral &&
         expr.literal.kind == LiteralValue::Kind::kNull;
}

/// Flips a comparison for `literal op column` form.
BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // kEq is symmetric; others unused
  }
}

Interval IntervalFor(BinaryOp op, int64_t v) {
  switch (op) {
    case BinaryOp::kEq:
      return Interval::Exactly(v);
    case BinaryOp::kLt:
      return v == kMin ? Interval{1, 0} : Interval::AtMost(v - 1);
    case BinaryOp::kLe:
      return Interval::AtMost(v);
    case BinaryOp::kGt:
      return v == kMax ? Interval{1, 0} : Interval::AtLeast(v + 1);
    case BinaryOp::kGe:
      return Interval::AtLeast(v);
    default:
      return Interval::All();
  }
}

bool IsComparison(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kLt || op == BinaryOp::kLe ||
         op == BinaryOp::kGt || op == BinaryOp::kGe;
}

/// Resolves a column reference against the target table; kInvalidColumnId
/// when it does not (or cannot be proven to) refer to the target row.
ColumnId ResolveTargetColumn(const Schema& schema, TableId table,
                             const std::string& binding, const Expr& expr) {
  if (expr.kind != ExprKind::kColumnRef) return kInvalidColumnId;
  if (!expr.qualifier.empty() && !EqualsIgnoreCase(expr.qualifier, binding)) {
    return kInvalidColumnId;
  }
  return schema.table(table).FindColumn(expr.column);
}

/// Recursive constraint extraction; returns false when the predicate is
/// not a pure conjunction of column/int-literal comparisons.
bool Extract(const Schema& schema, TableId table, const std::string& binding,
             const Expr& expr, std::map<ColumnId, Interval>* out) {
  if (expr.kind == ExprKind::kBinary && expr.binary_op == BinaryOp::kAnd) {
    return Extract(schema, table, binding, *expr.left, out) &&
           Extract(schema, table, binding, *expr.right, out);
  }
  if (expr.kind != ExprKind::kBinary || !IsComparison(expr.binary_op)) {
    return false;
  }
  ColumnId col = ResolveTargetColumn(schema, table, binding, *expr.left);
  std::optional<int64_t> value;
  BinaryOp op = expr.binary_op;
  if (col != kInvalidColumnId) {
    value = LiteralInt(*expr.right);
  } else {
    col = ResolveTargetColumn(schema, table, binding, *expr.right);
    if (col == kInvalidColumnId) return false;
    value = LiteralInt(*expr.left);
    op = FlipComparison(op);
  }
  if (!value.has_value()) return false;
  Interval constraint = IntervalFor(op, *value);
  auto [it, inserted] = out->emplace(col, constraint);
  if (!inserted) it->second = it->second.Intersect(constraint);
  return true;
}

/// Columns assigned by an UPDATE statement.
std::vector<ColumnId> SetColumns(const Schema& schema, TableId table,
                                 const Stmt& stmt) {
  std::vector<ColumnId> cols;
  for (const Assignment& a : stmt.assignments) {
    ColumnId c = schema.table(table).FindColumn(a.column);
    if (c != kInvalidColumnId) cols.push_back(c);
  }
  return cols;
}

bool ContainsColumn(const std::map<ColumnId, Interval>& intervals,
                    const std::vector<ColumnId>& cols) {
  for (ColumnId c : cols) {
    if (intervals.count(c) > 0) return true;
  }
  return false;
}

/// Conservative check for whether a rule can read the *current state* of
/// table `t` anywhere except the simple WHEREs of its own DELETE/UPDATE
/// statements on `t` (reads of the matched row in UPDATE SET expressions
/// are also allowed: the matched rows themselves are what the refinement
/// proves unaffected). Transition-table references count as reads of the
/// rule's own table (their contents change when the other rule's action
/// composes into the pending transition). Any unresolvable reference is
/// treated as a read of `t`.
class ReadWalker {
 public:
  ReadWalker(const Schema& schema, const RuleDef& rule, TableId target)
      : schema_(schema), rule_(rule), target_(target) {}

  /// True when the rule MIGHT read `target_` outside allowed positions.
  bool MightRead() {
    TableId own = schema_.FindTable(rule_.table);
    if (rule_.condition != nullptr) {
      if (WalkExpr(*rule_.condition)) return true;
    }
    (void)own;
    for (const StmtPtr& stmt : rule_.actions) {
      switch (stmt->kind) {
        case StmtKind::kSelect:
          if (WalkSelect(*stmt->select)) return true;
          break;
        case StmtKind::kRollback:
          break;
        case StmtKind::kInsert: {
          for (const auto& row : stmt->insert_rows) {
            for (const ExprPtr& e : row) {
              if (WalkExpr(*e)) return true;
            }
          }
          if (stmt->insert_select != nullptr &&
              WalkSelect(*stmt->insert_select)) {
            return true;
          }
          break;
        }
        case StmtKind::kDelete: {
          TableId t = schema_.FindTable(stmt->table);
          if (stmt->where == nullptr) break;
          if (t == target_) {
            // Allowed only if the WHERE is simple (caller refutes it).
            std::map<ColumnId, Interval> scratch;
            if (!Extract(schema_, t, stmt->table, *stmt->where, &scratch)) {
              return true;
            }
          } else {
            scope_.push_back({ToLower(stmt->table), t, /*allowed=*/false});
            bool reads = WalkExpr(*stmt->where);
            scope_.pop_back();
            if (reads) return true;
          }
          break;
        }
        case StmtKind::kUpdate: {
          TableId t = schema_.FindTable(stmt->table);
          bool is_target = t == target_;
          if (stmt->where != nullptr) {
            if (is_target) {
              std::map<ColumnId, Interval> scratch;
              if (!Extract(schema_, t, stmt->table, *stmt->where, &scratch)) {
                return true;
              }
            } else {
              scope_.push_back({ToLower(stmt->table), t, false});
              bool reads = WalkExpr(*stmt->where);
              scope_.pop_back();
              if (reads) return true;
            }
          }
          // SET expressions see the matched row; reads of the target's own
          // columns through it are allowed (matched rows are unaffected).
          scope_.push_back({ToLower(stmt->table), t, /*allowed=*/is_target});
          for (const Assignment& a : stmt->assignments) {
            if (WalkExpr(*a.value)) {
              scope_.pop_back();
              return true;
            }
          }
          scope_.pop_back();
          break;
        }
        case StmtKind::kCreateTable:
          return true;  // should not appear; be conservative
      }
    }
    return false;
  }

 private:
  struct ScopeRel {
    std::string binding;  // lowercased
    TableId table;
    bool allowed;  // reads through this relation do not count
  };

  bool TableIsTarget(TableId t) const { return t == target_; }

  bool WalkSelect(const SelectStmt& select) {
    size_t before = scope_.size();
    for (const TableRef& ref : select.from) {
      ScopeRel rel;
      rel.binding = ToLower(ref.BindingName());
      rel.allowed = false;
      if (ref.is_transition) {
        // Transition tables reflect the rule's pending transition on its
        // own table; treat as a read of that table.
        rel.table = schema_.FindTable(rule_.table);
      } else {
        rel.table = schema_.FindTable(ref.table);
      }
      if (rel.table == kInvalidTableId) {
        scope_.resize(before);
        return true;  // unknown relation: conservative
      }
      if (TableIsTarget(rel.table)) {
        scope_.resize(before);
        return true;  // scanning the target table
      }
      scope_.push_back(rel);
    }
    bool reads = false;
    for (const SelectItem& item : select.items) {
      if (item.expr != nullptr && WalkExpr(*item.expr)) reads = true;
    }
    if (!reads && select.where != nullptr && WalkExpr(*select.where)) {
      reads = true;
    }
    scope_.resize(before);
    return reads;
  }

  bool WalkExpr(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kLiteral:
        return false;
      case ExprKind::kColumnRef: {
        if (!expr.qualifier.empty()) {
          if (ParseTransitionTableKind(expr.qualifier).has_value()) {
            return TableIsTarget(schema_.FindTable(rule_.table));
          }
          std::string key = ToLower(expr.qualifier);
          for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
            if (it->binding == key) {
              return !it->allowed && TableIsTarget(it->table);
            }
          }
          TableId t = schema_.FindTable(expr.qualifier);
          if (t == kInvalidTableId) return true;  // unresolvable
          return TableIsTarget(t);
        }
        // Unqualified: innermost scope relation with the column.
        for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
          if (schema_.table(it->table).FindColumn(expr.column) !=
              kInvalidColumnId) {
            return !it->allowed && TableIsTarget(it->table);
          }
        }
        // Unresolved: a read of the target if it has such a column.
        return schema_.table(target_).FindColumn(expr.column) !=
               kInvalidColumnId;
      }
      case ExprKind::kUnary:
        return WalkExpr(*expr.left);
      case ExprKind::kBinary:
        return WalkExpr(*expr.left) || WalkExpr(*expr.right);
      case ExprKind::kExists:
      case ExprKind::kScalarSubquery:
        return WalkSelect(*expr.subquery);
      case ExprKind::kIn:
        return WalkExpr(*expr.left) || WalkSelect(*expr.subquery);
    }
    return true;
  }

  const Schema& schema_;
  const RuleDef& rule_;
  TableId target_;
  std::vector<ScopeRel> scope_;
};

}  // namespace

Interval Interval::All() { return {kMin, kMax}; }
Interval Interval::AtMost(int64_t v) { return {kMin, v}; }
Interval Interval::AtLeast(int64_t v) { return {v, kMax}; }
Interval Interval::Exactly(int64_t v) { return {v, v}; }

Interval Interval::Intersect(const Interval& other) const {
  return {lo > other.lo ? lo : other.lo, hi < other.hi ? hi : other.hi};
}

ColumnConstraints PredicateRefiner::ExtractConstraints(
    const Schema& schema, TableId table, const std::string& binding,
    const Expr* where) {
  ColumnConstraints out;
  if (where == nullptr) {
    out.simple = true;  // matches every row
    return out;
  }
  out.simple = Extract(schema, table, binding, *where, &out.intervals);
  if (!out.simple) out.intervals.clear();
  return out;
}

bool PredicateRefiner::RowDefinitelyFails(
    const Schema& schema, TableId table, const std::vector<ColumnId>& columns,
    const std::vector<ExprPtr>& row_exprs,
    const ColumnConstraints& constraints) {
  (void)schema;
  (void)table;
  if (!constraints.simple) return false;
  // An unsatisfiable WHERE rejects every row.
  for (const auto& [col, interval] : constraints.intervals) {
    if (interval.empty()) return true;
  }
  if (constraints.intervals.empty()) return false;  // matches every row
  // Build column -> expr for the row; columns not listed default to NULL.
  std::map<ColumnId, const Expr*> values;
  for (size_t i = 0; i < columns.size() && i < row_exprs.size(); ++i) {
    values[columns[i]] = row_exprs[i].get();
  }
  for (const auto& [col, interval] : constraints.intervals) {
    auto it = values.find(col);
    if (it == values.end()) {
      // Unlisted insert column is NULL: the comparison is unknown, so the
      // conjunct filters the row out.
      return true;
    }
    if (IsNullLiteral(*it->second)) return true;
    std::optional<int64_t> v = LiteralInt(*it->second);
    if (v.has_value() && !interval.Contains(*v)) return true;
  }
  return false;
}

bool PredicateRefiner::InsertsNeverMatchOnTable(const RuleDef& inserter,
                                                const RuleDef& writer,
                                                TableId t) const {
  for (const StmtPtr& ins : inserter.actions) {
    if (ins->kind != StmtKind::kInsert) continue;
    if (schema_.FindTable(ins->table) != t) continue;
    // INSERT ... SELECT rows are not statically known.
    if (ins->insert_select != nullptr) return false;
    // Resolve the insert's column list.
    std::vector<ColumnId> cols;
    if (ins->insert_columns.empty()) {
      for (ColumnId c = 0; c < schema_.table(t).num_columns(); ++c) {
        cols.push_back(c);
      }
    } else {
      for (const std::string& name : ins->insert_columns) {
        cols.push_back(schema_.table(t).FindColumn(name));
      }
    }
    for (const StmtPtr& wr : writer.actions) {
      if (wr->kind != StmtKind::kDelete && wr->kind != StmtKind::kUpdate) {
        continue;
      }
      if (schema_.FindTable(wr->table) != t) continue;
      ColumnConstraints constraints =
          ExtractConstraints(schema_, t, wr->table, wr->where.get());
      if (!constraints.simple) return false;
      for (const auto& row : ins->insert_rows) {
        if (!RowDefinitelyFails(schema_, t, cols, row, constraints)) {
          return false;
        }
      }
    }
  }
  return true;
}

bool PredicateRefiner::RefuteInsertWriteConflict(RuleIndex actor,
                                                 RuleIndex affected) const {
  // Condition 4: actor's insertions can affect what `affected` deletes or
  // updates. Refute on every table they contest.
  const RulePrelim& a = prelim_.rule(actor);
  const RulePrelim& b = prelim_.rule(affected);
  bool found = false;
  for (const Operation& op : a.performs) {
    if (op.kind != Operation::Kind::kInsert) continue;
    bool contested = false;
    for (const Operation& other : b.performs) {
      if (other.table == op.table &&
          (other.kind == Operation::Kind::kDelete ||
           other.kind == Operation::Kind::kUpdate)) {
        contested = true;
      }
    }
    if (!contested) continue;
    found = true;
    if (!InsertsNeverMatchOnTable(rules_[actor], rules_[affected],
                                  op.table)) {
      return false;
    }
  }
  return found;
}

bool PredicateRefiner::RefuteWriteReadConflict(RuleIndex actor,
                                               RuleIndex affected) const {
  // Condition 3: actor writes data that `affected` reads. Refutable only
  // when, on every contested table, the actor's writes are exclusively
  // never-matching INSERT VALUES and the affected rule reads the table
  // nowhere except the refuted simple WHEREs.
  const RulePrelim& a = prelim_.rule(actor);
  const RulePrelim& b = prelim_.rule(affected);
  std::set<TableId> contested;
  for (const Operation& op : a.performs) {
    switch (op.kind) {
      case Operation::Kind::kInsert:
      case Operation::Kind::kDelete: {
        auto it = b.reads.lower_bound(TableColumn{op.table, 0});
        if (it != b.reads.end() && it->table == op.table) {
          if (op.kind == Operation::Kind::kDelete) return false;
          contested.insert(op.table);
        }
        break;
      }
      case Operation::Kind::kUpdate:
        if (b.reads.count(TableColumn{op.table, op.column}) > 0) {
          return false;  // updates changing read data are not refutable
        }
        break;
    }
  }
  if (contested.empty()) return false;  // nothing to refute (be strict)
  for (TableId t : contested) {
    ReadWalker walker(schema_, rules_[affected], t);
    if (walker.MightRead()) return false;
    if (!InsertsNeverMatchOnTable(rules_[actor], rules_[affected], t)) {
      return false;
    }
  }
  return true;
}

bool PredicateRefiner::UpdatesDisjoint(const RuleDef& a,
                                       const RuleDef& b) const {
  bool found_conflict = false;
  for (const StmtPtr& ua : a.actions) {
    if (ua->kind != StmtKind::kUpdate) continue;
    TableId t = schema_.FindTable(ua->table);
    for (const StmtPtr& ub : b.actions) {
      if (ub->kind != StmtKind::kUpdate) continue;
      if (schema_.FindTable(ub->table) != t) continue;
      // Only same-column update pairs are Lemma 6.1 condition-5 conflicts.
      std::vector<ColumnId> set_a = SetColumns(schema_, t, *ua);
      std::vector<ColumnId> set_b = SetColumns(schema_, t, *ub);
      bool overlap = false;
      for (ColumnId ca : set_a) {
        for (ColumnId cb : set_b) {
          overlap = overlap || ca == cb;
        }
      }
      if (!overlap) continue;
      found_conflict = true;

      ColumnConstraints ka =
          ExtractConstraints(schema_, t, ua->table, ua->where.get());
      ColumnConstraints kb =
          ExtractConstraints(schema_, t, ub->table, ub->where.get());
      if (!ka.simple || !kb.simple) return false;
      // Stability: neither update may modify a column constrained by the
      // other's WHERE (it could move rows into the other's range).
      if (ContainsColumn(kb.intervals, set_a) ||
          ContainsColumn(ka.intervals, set_b)) {
        return false;
      }
      // Disjointness: some column constrained by both with an empty
      // intersection (or either side unsatisfiable on its own).
      bool disjoint = false;
      for (const auto& [col, ia] : ka.intervals) {
        if (ia.empty()) disjoint = true;
        auto it = kb.intervals.find(col);
        if (it != kb.intervals.end() && ia.Intersect(it->second).empty()) {
          disjoint = true;
        }
      }
      for (const auto& [col, ib] : kb.intervals) {
        if (ib.empty()) disjoint = true;
      }
      if (!disjoint) return false;
    }
  }
  return found_conflict;
}

bool PredicateRefiner::RefuteCause(const NoncommutativityCause& cause,
                                   RuleIndex i, RuleIndex j) const {
  switch (cause.condition) {
    case 3:
      return RefuteWriteReadConflict(cause.actor, cause.affected);
    case 4:
      return RefuteInsertWriteConflict(cause.actor, cause.affected);
    case 5:
      return UpdatesDisjoint(rules_[i], rules_[j]);
    default:
      // Triggering and untriggering are not refutable by this interval
      // analysis.
      return false;
  }
}

bool PredicateRefiner::PairCommutes(RuleIndex i, RuleIndex j) const {
  auto causes = CommutativityAnalyzer::ExplainPair(prelim_, i, j);
  if (causes.empty()) return true;  // already syntactically commutative
  for (const NoncommutativityCause& cause : causes) {
    if (!RefuteCause(cause, i, j)) return false;
  }
  return true;
}

CommutativityCertifications PredicateRefiner::Refine() const {
  CommutativityCertifications certs;
  int n = prelim_.num_rules();
  for (RuleIndex i = 0; i < n; ++i) {
    // Only overlapping pairs can fail Lemma 6.1 (rule_index.h).
    for (RuleIndex j : prelim_.index().OverlapCandidates(i)) {
      if (j > i && !CommutativityAnalyzer::SyntacticallyCommutePair(
                       prelim_, i, j) &&
          PairCommutes(i, j)) {
        certs.Certify(prelim_.rule(i).name, prelim_.rule(j).name);
      }
    }
  }
  return certs;
}

}  // namespace starburst
