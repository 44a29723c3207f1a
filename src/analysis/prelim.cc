#include "analysis/prelim.h"

#include "common/strings.h"

namespace starburst {

namespace {

/// Walks a rule's condition and action ASTs, collecting Reads, Performs,
/// referenced tables, and validating names and transition-table usage.
class RuleWalker {
 public:
  RuleWalker(const Schema& schema, const RuleDef& rule, RulePrelim* out)
      : schema_(schema), rule_(rule), out_(out) {}

  Status Walk() {
    if (rule_.condition != nullptr) {
      STARBURST_RETURN_IF_ERROR(WalkExpr(*rule_.condition));
    }
    for (const StmtPtr& stmt : rule_.actions) {
      STARBURST_RETURN_IF_ERROR(WalkActionStmt(*stmt));
    }
    return Status::OK();
  }

 private:
  struct ScopeRel {
    std::string binding;  // lowercased
    TableId table;
  };

  Status SemErr(const std::string& msg) const {
    return Status::SemanticError("rule '" + rule_.name + "': " + msg);
  }

  void AddRead(TableId t, ColumnId c) {
    out_->reads.insert(TableColumn{t, c});
    out_->referenced_tables.insert(t);
  }

  void AddAllColumnsRead(TableId t) {
    for (ColumnId c = 0; c < schema_.table(t).num_columns(); ++c) {
      AddRead(t, c);
    }
  }

  /// Checks a transition-table reference against the rule's triggering
  /// operations and returns the rule's table id.
  Result<TableId> ValidateTransitionUse(TransitionTableKind kind) {
    bool ok = false;
    for (const TriggerEvent& ev : rule_.events) {
      switch (kind) {
        case TransitionTableKind::kInserted:
          ok = ok || ev.kind == TriggerEvent::Kind::kInserted;
          break;
        case TransitionTableKind::kDeleted:
          ok = ok || ev.kind == TriggerEvent::Kind::kDeleted;
          break;
        case TransitionTableKind::kNewUpdated:
        case TransitionTableKind::kOldUpdated:
          ok = ok || ev.kind == TriggerEvent::Kind::kUpdated;
          break;
      }
    }
    if (!ok) {
      return SemErr(std::string("references transition table '") +
                    TransitionTableKindToString(kind) +
                    "' but has no corresponding triggering operation");
    }
    return out_->table;
  }

  Status AddColumnRef(const std::string& qualifier, const std::string& column) {
    if (!qualifier.empty()) {
      // Transition table?
      if (auto kind = ParseTransitionTableKind(qualifier)) {
        STARBURST_ASSIGN_OR_RETURN(TableId t, ValidateTransitionUse(*kind));
        ColumnId c = schema_.table(t).FindColumn(column);
        if (c == kInvalidColumnId) {
          return SemErr("no column '" + column + "' in triggering table '" +
                        schema_.table(t).name() + "'");
        }
        AddRead(t, c);
        return Status::OK();
      }
      // Scope binding (FROM alias or table name), innermost first.
      std::string key = ToLower(qualifier);
      for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
        if (it->binding == key) {
          ColumnId c = schema_.table(it->table).FindColumn(column);
          if (c == kInvalidColumnId) {
            return SemErr("no column '" + column + "' in relation '" +
                          qualifier + "'");
          }
          AddRead(it->table, c);
          return Status::OK();
        }
      }
      // Direct schema table reference outside FROM (conservative read).
      TableId t = schema_.FindTable(qualifier);
      if (t == kInvalidTableId) {
        return SemErr("unknown relation '" + qualifier + "'");
      }
      ColumnId c = schema_.table(t).FindColumn(column);
      if (c == kInvalidColumnId) {
        return SemErr("no column '" + column + "' in table '" + qualifier +
                      "'");
      }
      AddRead(t, c);
      return Status::OK();
    }
    // Unqualified: innermost scope relation that has the column.
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
      ColumnId c = schema_.table(it->table).FindColumn(column);
      if (c != kInvalidColumnId) {
        AddRead(it->table, c);
        return Status::OK();
      }
    }
    // Conservative fallback: every table with a column of this name.
    bool found = false;
    for (const TableDef& t : schema_.tables()) {
      ColumnId c = t.FindColumn(column);
      if (c != kInvalidColumnId) {
        AddRead(t.id(), c);
        found = true;
      }
    }
    if (!found) {
      return SemErr("unresolved column '" + column + "'");
    }
    return Status::OK();
  }

  Status WalkExpr(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kLiteral:
        return Status::OK();
      case ExprKind::kColumnRef:
        return AddColumnRef(expr.qualifier, expr.column);
      case ExprKind::kUnary:
        return WalkExpr(*expr.left);
      case ExprKind::kBinary:
        STARBURST_RETURN_IF_ERROR(WalkExpr(*expr.left));
        return WalkExpr(*expr.right);
      case ExprKind::kExists:
      case ExprKind::kScalarSubquery:
        return WalkSelect(*expr.subquery);
      case ExprKind::kIn:
        STARBURST_RETURN_IF_ERROR(WalkExpr(*expr.left));
        return WalkSelect(*expr.subquery);
    }
    return Status::Internal("unknown expression kind");
  }

  Status WalkSelect(const SelectStmt& select) {
    size_t scope_before = scope_.size();
    for (const TableRef& ref : select.from) {
      ScopeRel rel;
      rel.binding = ToLower(ref.BindingName());
      if (ref.is_transition) {
        STARBURST_ASSIGN_OR_RETURN(rel.table,
                                   ValidateTransitionUse(ref.transition));
      } else {
        TableId t = schema_.FindTable(ref.table);
        if (t == kInvalidTableId) {
          return SemErr("unknown table '" + ref.table + "'");
        }
        rel.table = t;
        out_->referenced_tables.insert(t);
      }
      scope_.push_back(rel);
    }
    Status status = Status::OK();
    for (const SelectItem& item : select.items) {
      if (item.is_star) {
        // `*` reads every column of every FROM relation of this select.
        for (size_t s = scope_before; s < scope_.size(); ++s) {
          AddAllColumnsRead(scope_[s].table);
        }
      } else if (item.expr != nullptr) {
        status = WalkExpr(*item.expr);
        if (!status.ok()) break;
      }
    }
    if (status.ok() && select.where != nullptr) {
      status = WalkExpr(*select.where);
    }
    scope_.resize(scope_before);
    return status;
  }

  Status WalkActionStmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kSelect:
        out_->observable = true;
        return WalkSelect(*stmt.select);
      case StmtKind::kRollback:
        out_->observable = true;
        return Status::OK();
      case StmtKind::kInsert: {
        TableId t = schema_.FindTable(stmt.table);
        if (t == kInvalidTableId) {
          return SemErr("unknown table '" + stmt.table + "'");
        }
        out_->referenced_tables.insert(t);
        STARBURST_RETURN_IF_ERROR(ValidateColumns(t, stmt.insert_columns));
        out_->performs.insert(Operation::Insert(t));
        for (const auto& row : stmt.insert_rows) {
          for (const ExprPtr& e : row) {
            STARBURST_RETURN_IF_ERROR(WalkExpr(*e));
          }
        }
        if (stmt.insert_select != nullptr) {
          STARBURST_RETURN_IF_ERROR(WalkSelect(*stmt.insert_select));
        }
        return Status::OK();
      }
      case StmtKind::kDelete: {
        TableId t = schema_.FindTable(stmt.table);
        if (t == kInvalidTableId) {
          return SemErr("unknown table '" + stmt.table + "'");
        }
        out_->referenced_tables.insert(t);
        out_->performs.insert(Operation::Delete(t));
        if (stmt.where != nullptr) {
          // The WHERE predicate sees the target table's row.
          scope_.push_back(ScopeRel{ToLower(stmt.table), t});
          Status st = WalkExpr(*stmt.where);
          scope_.pop_back();
          return st;
        }
        return Status::OK();
      }
      case StmtKind::kUpdate: {
        TableId t = schema_.FindTable(stmt.table);
        if (t == kInvalidTableId) {
          return SemErr("unknown table '" + stmt.table + "'");
        }
        out_->referenced_tables.insert(t);
        scope_.push_back(ScopeRel{ToLower(stmt.table), t});
        Status status = Status::OK();
        for (const Assignment& a : stmt.assignments) {
          ColumnId c = schema_.table(t).FindColumn(a.column);
          if (c == kInvalidColumnId) {
            status = SemErr("no column '" + a.column + "' in table '" +
                            stmt.table + "'");
            break;
          }
          out_->performs.insert(Operation::Update(t, c));
          status = WalkExpr(*a.value);
          if (!status.ok()) break;
        }
        if (status.ok() && stmt.where != nullptr) {
          status = WalkExpr(*stmt.where);
        }
        scope_.pop_back();
        return status;
      }
      case StmtKind::kCreateTable:
        return SemErr("DDL is not allowed in a rule action");
    }
    return Status::Internal("unknown statement kind");
  }

  Status ValidateColumns(TableId t, const std::vector<std::string>& cols) {
    for (const std::string& name : cols) {
      if (schema_.table(t).FindColumn(name) == kInvalidColumnId) {
        return SemErr("no column '" + name + "' in table '" +
                      schema_.table(t).name() + "'");
      }
    }
    return Status::OK();
  }

  const Schema& schema_;
  const RuleDef& rule_;
  RulePrelim* out_;
  std::vector<ScopeRel> scope_;
};

/// True when the operations in `ops` can untrigger `prelim`'s rule: some
/// (D, t) ∈ ops while the rule is triggered by (I, t) or (U, t.c)
/// (Section 3, Can-Untrigger).
bool CanUntriggerWith(const OperationSet& ops, const RulePrelim& prelim) {
  for (const Operation& op : ops) {
    if (op.kind != Operation::Kind::kDelete) continue;
    for (const Operation& tb : prelim.triggered_by) {
      if (tb.table != op.table) continue;
      if (tb.kind == Operation::Kind::kInsert ||
          tb.kind == Operation::Kind::kUpdate) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

Result<RulePrelim> PrelimAnalysis::ComputeRule(const Schema& schema,
                                               const RuleDef& rule) {
  RulePrelim prelim;
  prelim.name = rule.name;
  TableId t = schema.FindTable(rule.table);
  if (t == kInvalidTableId) {
    return Status::SemanticError("rule '" + rule.name + "': unknown table '" +
                                 rule.table + "'");
  }
  prelim.table = t;
  prelim.referenced_tables.insert(t);
  if (rule.events.empty()) {
    return Status::SemanticError("rule '" + rule.name +
                                 "' has no triggering operations");
  }
  // Triggered-By from the transition predicate.
  for (const TriggerEvent& ev : rule.events) {
    switch (ev.kind) {
      case TriggerEvent::Kind::kInserted:
        prelim.triggered_by.insert(Operation::Insert(t));
        break;
      case TriggerEvent::Kind::kDeleted:
        prelim.triggered_by.insert(Operation::Delete(t));
        break;
      case TriggerEvent::Kind::kUpdated:
        if (ev.columns.empty()) {
          for (ColumnId c = 0; c < schema.table(t).num_columns(); ++c) {
            prelim.triggered_by.insert(Operation::Update(t, c));
          }
        } else {
          for (const std::string& col : ev.columns) {
            ColumnId c = schema.table(t).FindColumn(col);
            if (c == kInvalidColumnId) {
              return Status::SemanticError("rule '" + rule.name +
                                           "': no column '" + col +
                                           "' in table '" + rule.table + "'");
            }
            prelim.triggered_by.insert(Operation::Update(t, c));
          }
        }
        break;
    }
  }
  RuleWalker walker(schema, rule, &prelim);
  STARBURST_RETURN_IF_ERROR(walker.Walk());
  return prelim;
}

std::vector<RuleIndex> PrelimAnalysis::ComputeTriggersRow(RuleIndex i) const {
  // A rule rj can only be triggered by operations on its own table, so the
  // targets of i's edges all live in the RulesOn() buckets of the tables i
  // performs operations on — each candidate appears in exactly one bucket.
  std::vector<RuleIndex> row;
  TableId last = kInvalidTableId;
  for (const Operation& op : prelims_[i].performs) {
    if (op.table == last) continue;  // performs is table-ordered
    last = op.table;
    for (RuleIndex j : index_.RulesOn(op.table)) {
      if (Intersects(prelims_[i].performs, prelims_[j].triggered_by)) {
        row.push_back(j);
      }
    }
  }
  // Invariant: Triggers() rows are sorted ascending. TriggersRule() and
  // TriggeringGraph::HasEdge() binary-search them.
  std::sort(row.begin(), row.end());
  return row;
}

Result<PrelimAnalysis> PrelimAnalysis::Compute(
    const Schema& schema, const std::vector<RuleDef>& rules) {
  PrelimAnalysis analysis;
  analysis.prelims_.reserve(rules.size());
  std::set<std::string> names;
  for (const RuleDef& rule : rules) {
    if (!names.insert(ToLower(rule.name)).second) {
      return Status::SemanticError("duplicate rule name '" + rule.name + "'");
    }
    STARBURST_ASSIGN_OR_RETURN(RulePrelim prelim, ComputeRule(schema, rule));
    analysis.prelims_.push_back(std::move(prelim));
  }

  // Triggers relation, enumerated sparsely through the footprint index
  // instead of the all-pairs product.
  int n = analysis.num_rules();
  analysis.index_.Build(analysis.prelims_);
  analysis.triggers_.reserve(n);
  for (RuleIndex i = 0; i < n; ++i) {
    analysis.triggers_.push_back(analysis.ComputeTriggersRow(i));
    analysis.name_index_[ToLower(analysis.prelims_[i].name)] = i;
  }
  return analysis;
}

RuleIndex PrelimAnalysis::AppendComputed(RulePrelim prelim) {
  RuleIndex n = num_rules();
  prelims_.push_back(std::move(prelim));
  index_.Append(prelims_[n]);
  name_index_[ToLower(prelims_[n].name)] = n;
  // In-edges: only rules touching the new rule's table can perform an
  // operation that triggers it. Appending index n keeps rows sorted.
  for (RuleIndex j : index_.RulesTouching(prelims_[n].table)) {
    if (j != n && Intersects(prelims_[j].performs, prelims_[n].triggered_by)) {
      triggers_[j].push_back(n);
    }
  }
  // Out-edges (including a possible self-loop).
  triggers_.push_back(ComputeTriggersRow(n));
  return n;
}

void PrelimAnalysis::TombstoneRule(RuleIndex r) {
  // In-edges: only rules touching r's table can perform an operation that
  // triggers r (the AppendComputed argument), so only their rows hold r.
  for (RuleIndex j : index_.RulesTouching(prelims_[r].table)) {
    std::vector<RuleIndex>& row = triggers_[j];
    auto it = std::lower_bound(row.begin(), row.end(), r);
    if (it != row.end() && *it == r) row.erase(it);
  }
  triggers_[r].clear();
  name_index_.erase(ToLower(prelims_[r].name));
  index_.Remove(r);
  prelims_[r] = RulePrelim();
}

void PrelimAnalysis::Compact(const std::vector<RuleIndex>& remap) {
  DropTombstones(&prelims_, remap);
  DropTombstones(&triggers_, remap);
  for (std::vector<RuleIndex>& row : triggers_) RemapRow(&row, remap);
  for (auto& [name, idx] : name_index_) idx = remap[idx];
  index_.Build(prelims_);
}

std::vector<RuleIndex> PrelimAnalysis::CanUntrigger(
    const OperationSet& ops) const {
  std::vector<RuleIndex> out;
  for (RuleIndex j = 0; j < num_rules(); ++j) {
    if (CanUntriggerWith(ops, prelims_[j])) out.push_back(j);
  }
  return out;
}

bool PrelimAnalysis::CanUntriggerRule(RuleIndex ri, RuleIndex rj) const {
  return CanUntriggerWith(prelims_[ri].performs, prelims_[rj]);
}

PrelimAnalysis PrelimAnalysis::ExtendWithObservableTable(
    TableId obs_table) const {
  PrelimAnalysis extended = *this;
  for (RulePrelim& prelim : extended.prelims_) {
    if (!prelim.observable) continue;
    prelim.performs.insert(Operation::Insert(obs_table));
    prelim.reads.insert(TableColumn{obs_table, 0});
  }
  // Rebuild the footprint index: every observable rule now touches Obs, so
  // observable pairs must surface as overlap candidates.
  extended.index_.Build(extended.prelims_);
  return extended;
}

RuleIndex PrelimAnalysis::FindRule(const std::string& name) const {
  auto it = name_index_.find(ToLower(name));
  return it == name_index_.end() ? -1 : it->second;
}

}  // namespace starburst
