#include "rulelang/parser.h"

#include <algorithm>

#include "common/strings.h"
#include "rulelang/lexer.h"

namespace starburst {

namespace {

// Column types accepted in CREATE TABLE.
Result<ColumnType> ParseColumnType(const Token& tok) {
  if (tok.type == TokenType::kKeyword) {
    if (tok.text == "int" || tok.text == "integer") return ColumnType::kInt;
    if (tok.text == "double" || tok.text == "float") return ColumnType::kDouble;
    if (tok.text == "string" || tok.text == "varchar") {
      return ColumnType::kString;
    }
    if (tok.text == "bool" || tok.text == "boolean") return ColumnType::kBool;
  }
  return Status::ParseError("expected column type at line " +
                            std::to_string(tok.line) + ", got '" + tok.text +
                            "'");
}

bool IsTransitionKeyword(const Token& tok) {
  if (tok.type != TokenType::kKeyword) return false;
  return tok.text == "inserted" || tok.text == "deleted" ||
         tok.text == "new_updated" || tok.text == "old_updated";
}

}  // namespace

const Token& Parser::Peek(int ahead) const {
  size_t i = pos_ + static_cast<size_t>(ahead);
  if (i >= tokens_.size()) return tokens_.back();
  return tokens_[i];
}

const Token& Parser::Advance() {
  const Token& t = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool Parser::Check(TokenType type) const { return Peek().type == type; }

bool Parser::CheckKeyword(const char* kw) const { return Peek().IsKeyword(kw); }

bool Parser::Match(TokenType type) {
  if (!Check(type)) return false;
  Advance();
  return true;
}

bool Parser::MatchKeyword(const char* kw) {
  if (!CheckKeyword(kw)) return false;
  Advance();
  return true;
}

Status Parser::Expect(TokenType type, const char* what) {
  if (Check(type)) {
    Advance();
    return Status::OK();
  }
  return ErrorHere(std::string("expected ") + what);
}

Status Parser::ExpectKeyword(const char* kw) {
  if (CheckKeyword(kw)) {
    Advance();
    return Status::OK();
  }
  return ErrorHere(std::string("expected keyword '") + kw + "'");
}

Status Parser::ErrorHere(const std::string& message) const {
  const Token& t = Peek();
  std::string got = t.type == TokenType::kEnd ? "end of input" : "'" + t.text + "'";
  if (t.text.empty()) got = TokenTypeToString(t.type);
  return Status::ParseError(message + " at line " + std::to_string(t.line) +
                            ", got " + got);
}

Status Parser::EnterNesting() {
  if (nesting_ >= kMaxExprDepth) return DepthError();
  ++nesting_;
  return Status::OK();
}

Status Parser::SetHeight(int height) {
  height_ = height;
  if (height > kMaxExprDepth) return DepthError();
  return Status::OK();
}

Status Parser::DepthError() const {
  return Status::LimitExceeded("expression nesting exceeds " +
                               std::to_string(kMaxExprDepth) +
                               " levels at line " +
                               std::to_string(Peek().line));
}

Result<Script> Parser::ParseScript(std::string_view source) {
  STARBURST_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                             Lexer::Tokenize(source));
  Parser p(std::move(tokens));
  return p.Script_();
}

Result<RuleDef> Parser::ParseRule(std::string_view source) {
  STARBURST_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                             Lexer::Tokenize(source));
  Parser p(std::move(tokens));
  STARBURST_ASSIGN_OR_RETURN(RuleDef rule, p.Rule_());
  p.Match(TokenType::kSemicolon);
  if (!p.Check(TokenType::kEnd)) {
    return p.ErrorHere("trailing input after rule definition");
  }
  return rule;
}

Result<StmtPtr> Parser::ParseStatement(std::string_view source) {
  STARBURST_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                             Lexer::Tokenize(source));
  Parser p(std::move(tokens));
  STARBURST_ASSIGN_OR_RETURN(StmtPtr stmt, p.Statement_());
  p.Match(TokenType::kSemicolon);
  if (!p.Check(TokenType::kEnd)) {
    return p.ErrorHere("trailing input after statement");
  }
  return stmt;
}

Result<ExprPtr> Parser::ParseExpression(std::string_view source) {
  STARBURST_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                             Lexer::Tokenize(source));
  Parser p(std::move(tokens));
  STARBURST_ASSIGN_OR_RETURN(ExprPtr expr, p.Expr_());
  if (!p.Check(TokenType::kEnd)) {
    return p.ErrorHere("trailing input after expression");
  }
  return expr;
}

Result<Script> Parser::Script_() {
  Script script;
  while (!Check(TokenType::kEnd)) {
    if (CheckKeyword("create") && Peek(1).IsKeyword("rule")) {
      STARBURST_ASSIGN_OR_RETURN(RuleDef rule, Rule_());
      script.items.push_back(Script::ItemKind::kRule);
      script.rules.push_back(std::move(rule));
    } else {
      STARBURST_ASSIGN_OR_RETURN(StmtPtr stmt, Statement_());
      script.items.push_back(Script::ItemKind::kStatement);
      script.statements.push_back(std::move(stmt));
    }
    // Statements are separated by semicolons; allow and skip repeats.
    while (Match(TokenType::kSemicolon)) {
    }
  }
  return script;
}

bool Parser::AtStatementStart() const {
  return CheckKeyword("select") || CheckKeyword("insert") ||
         CheckKeyword("delete") || CheckKeyword("update") ||
         CheckKeyword("rollback") || CheckKeyword("create");
}

Result<RuleDef> Parser::Rule_() {
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("create"));
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("rule"));
  RuleDef rule;
  if (!Check(TokenType::kIdentifier)) return ErrorHere("expected rule name");
  rule.name = Advance().text;
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("on"));
  if (!Check(TokenType::kIdentifier)) return ErrorHere("expected table name");
  rule.table = Advance().text;
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("when"));
  do {
    STARBURST_ASSIGN_OR_RETURN(TriggerEvent ev, Event_());
    rule.events.push_back(std::move(ev));
  } while (Match(TokenType::kComma));
  if (MatchKeyword("if")) {
    STARBURST_ASSIGN_OR_RETURN(rule.condition, Expr_());
  }
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("then"));
  // Parse action statements separated by ';' until PRECEDES / FOLLOWS /
  // end of rule (next CREATE or end of input).
  while (true) {
    STARBURST_ASSIGN_OR_RETURN(StmtPtr stmt, Statement_());
    if (stmt->kind == StmtKind::kCreateTable) {
      return Status::ParseError("'create table' is not allowed as a rule action (rule '" +
                                rule.name + "')");
    }
    rule.actions.push_back(std::move(stmt));
    if (CheckKeyword("precedes") || CheckKeyword("follows")) break;
    if (!Match(TokenType::kSemicolon)) break;
    if (Check(TokenType::kEnd) || CheckKeyword("create") ||
        CheckKeyword("precedes") || CheckKeyword("follows")) {
      break;
    }
  }
  while (CheckKeyword("precedes") || CheckKeyword("follows")) {
    bool is_precedes = CheckKeyword("precedes");
    Advance();
    STARBURST_ASSIGN_OR_RETURN(std::vector<std::string> names, NameList_());
    auto& dest = is_precedes ? rule.precedes : rule.follows;
    for (std::string& n : names) dest.push_back(std::move(n));
  }
  return rule;
}

Result<TriggerEvent> Parser::Event_() {
  if (MatchKeyword("inserted")) return TriggerEvent::Inserted();
  if (MatchKeyword("deleted")) return TriggerEvent::Deleted();
  if (MatchKeyword("updated")) {
    std::vector<std::string> cols;
    if (Match(TokenType::kLParen)) {
      do {
        if (!Check(TokenType::kIdentifier)) {
          return ErrorHere("expected column name in updated(...)");
        }
        cols.push_back(Advance().text);
      } while (Match(TokenType::kComma));
      STARBURST_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    }
    return TriggerEvent::Updated(std::move(cols));
  }
  return ErrorHere("expected 'inserted', 'deleted', or 'updated'");
}

Result<StmtPtr> Parser::Statement_() {
  if (CheckKeyword("create")) return CreateTable_();
  if (CheckKeyword("select")) {
    STARBURST_ASSIGN_OR_RETURN(SelectPtr sel, Select_());
    return MakeSelectStmt(std::move(sel));
  }
  if (CheckKeyword("insert")) return Insert_();
  if (CheckKeyword("delete")) return Delete_();
  if (CheckKeyword("update")) return Update_();
  if (MatchKeyword("rollback")) return MakeRollback();
  return ErrorHere("expected a statement");
}

Result<StmtPtr> Parser::CreateTable_() {
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("create"));
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("table"));
  if (!Check(TokenType::kIdentifier)) return ErrorHere("expected table name");
  std::string name = Advance().text;
  STARBURST_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
  std::vector<Column> columns;
  do {
    if (!Check(TokenType::kIdentifier)) return ErrorHere("expected column name");
    std::string col = Advance().text;
    STARBURST_ASSIGN_OR_RETURN(ColumnType type, ParseColumnType(Peek()));
    Advance();
    columns.push_back(Column{std::move(col), type});
  } while (Match(TokenType::kComma));
  STARBURST_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
  return MakeCreateTable(std::move(name), std::move(columns));
}

Result<SelectPtr> Parser::Select_() {
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("select"));
  auto select = std::make_unique<SelectStmt>();
  int height = 0;
  do {
    STARBURST_ASSIGN_OR_RETURN(SelectItem item, SelectItem_());
    height = std::max(height, height_);
    select->items.push_back(std::move(item));
  } while (Match(TokenType::kComma));
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("from"));
  do {
    STARBURST_ASSIGN_OR_RETURN(TableRef ref, TableRef_());
    select->from.push_back(std::move(ref));
  } while (Match(TokenType::kComma));
  if (MatchKeyword("where")) {
    STARBURST_ASSIGN_OR_RETURN(select->where, Expr_());
    height = std::max(height, height_);
  }
  height_ = height;
  return select;
}

Result<SelectItem> Parser::SelectItem_() {
  height_ = 0;  // star items carry no expression
  if (Match(TokenType::kStar)) {
    return SelectItem(AggFunc::kNone, /*star=*/true, nullptr);
  }
  AggFunc func = AggFunc::kNone;
  if (CheckKeyword("count")) {
    func = AggFunc::kCount;
  } else if (CheckKeyword("sum")) {
    func = AggFunc::kSum;
  } else if (CheckKeyword("min")) {
    func = AggFunc::kMin;
  } else if (CheckKeyword("max")) {
    func = AggFunc::kMax;
  } else if (CheckKeyword("avg")) {
    func = AggFunc::kAvg;
  }
  if (func != AggFunc::kNone) {
    Advance();
    STARBURST_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    if (Match(TokenType::kStar)) {
      if (func != AggFunc::kCount) {
        return ErrorHere("'*' is only valid inside count()");
      }
      STARBURST_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return SelectItem(func, /*star=*/true, nullptr);
    }
    STARBURST_ASSIGN_OR_RETURN(ExprPtr expr, Expr_());
    STARBURST_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return SelectItem(func, /*star=*/false, std::move(expr));
  }
  STARBURST_ASSIGN_OR_RETURN(ExprPtr expr, Expr_());
  return SelectItem(AggFunc::kNone, /*star=*/false, std::move(expr));
}

Result<TableRef> Parser::TableRef_() {
  TableRef ref;
  if (IsTransitionKeyword(Peek())) {
    auto kind = ParseTransitionTableKind(Advance().text);
    ref = TableRef::Transition(*kind);
  } else if (Check(TokenType::kIdentifier)) {
    ref = TableRef::Base(Advance().text);
  } else {
    return ErrorHere("expected table name or transition table");
  }
  if (MatchKeyword("as")) {
    if (!Check(TokenType::kIdentifier)) return ErrorHere("expected alias name");
    ref.alias = Advance().text;
  } else if (Check(TokenType::kIdentifier)) {
    ref.alias = Advance().text;
  }
  return ref;
}

Result<StmtPtr> Parser::Insert_() {
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("insert"));
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("into"));
  if (!Check(TokenType::kIdentifier)) return ErrorHere("expected table name");
  std::string table = Advance().text;
  std::vector<std::string> columns;
  // Optional column list: '(' names ')' followed by VALUES or SELECT.
  if (Check(TokenType::kLParen) && Peek(1).type == TokenType::kIdentifier) {
    Advance();
    do {
      if (!Check(TokenType::kIdentifier)) return ErrorHere("expected column name");
      columns.push_back(Advance().text);
    } while (Match(TokenType::kComma));
    STARBURST_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
  }
  if (MatchKeyword("values")) {
    std::vector<std::vector<ExprPtr>> rows;
    do {
      STARBURST_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      std::vector<ExprPtr> row;
      do {
        STARBURST_ASSIGN_OR_RETURN(ExprPtr e, Expr_());
        row.push_back(std::move(e));
      } while (Match(TokenType::kComma));
      STARBURST_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      rows.push_back(std::move(row));
    } while (Match(TokenType::kComma));
    return MakeInsertValues(std::move(table), std::move(columns),
                            std::move(rows));
  }
  if (CheckKeyword("select")) {
    STARBURST_ASSIGN_OR_RETURN(SelectPtr sel, Select_());
    return MakeInsertSelect(std::move(table), std::move(columns),
                            std::move(sel));
  }
  return ErrorHere("expected VALUES or SELECT in INSERT");
}

Result<StmtPtr> Parser::Delete_() {
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("delete"));
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("from"));
  if (!Check(TokenType::kIdentifier)) return ErrorHere("expected table name");
  std::string table = Advance().text;
  ExprPtr where;
  if (MatchKeyword("where")) {
    STARBURST_ASSIGN_OR_RETURN(where, Expr_());
  }
  return MakeDelete(std::move(table), std::move(where));
}

Result<StmtPtr> Parser::Update_() {
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("update"));
  if (!Check(TokenType::kIdentifier)) return ErrorHere("expected table name");
  std::string table = Advance().text;
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("set"));
  std::vector<Assignment> assignments;
  do {
    if (!Check(TokenType::kIdentifier)) return ErrorHere("expected column name");
    std::string col = Advance().text;
    STARBURST_RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
    STARBURST_ASSIGN_OR_RETURN(ExprPtr value, Expr_());
    assignments.emplace_back(std::move(col), std::move(value));
  } while (Match(TokenType::kComma));
  ExprPtr where;
  if (MatchKeyword("where")) {
    STARBURST_ASSIGN_OR_RETURN(where, Expr_());
  }
  return MakeUpdate(std::move(table), std::move(assignments), std::move(where));
}

// Every expression production leaves the height of the tree it returns in
// `height_`; each node built checks its height through SetHeight, so a tree
// never grows past kMaxExprDepth. Recursive productions (Expr_, `not`,
// unary minus) also bound the parser's own recursion via EnterNesting.

Result<ExprPtr> Parser::Expr_() {
  STARBURST_RETURN_IF_ERROR(EnterNesting());
  Result<ExprPtr> expr = OrExpr_();
  LeaveNesting();
  return expr;
}

Result<ExprPtr> Parser::OrExpr_() {
  STARBURST_ASSIGN_OR_RETURN(ExprPtr left, AndExpr_());
  while (MatchKeyword("or")) {
    int left_height = height_;
    STARBURST_ASSIGN_OR_RETURN(ExprPtr right, AndExpr_());
    left = MakeBinary(BinaryOp::kOr, std::move(left), std::move(right));
    STARBURST_RETURN_IF_ERROR(SetHeight(std::max(left_height, height_) + 1));
  }
  return left;
}

Result<ExprPtr> Parser::AndExpr_() {
  STARBURST_ASSIGN_OR_RETURN(ExprPtr left, NotExpr_());
  while (MatchKeyword("and")) {
    int left_height = height_;
    STARBURST_ASSIGN_OR_RETURN(ExprPtr right, NotExpr_());
    left = MakeBinary(BinaryOp::kAnd, std::move(left), std::move(right));
    STARBURST_RETURN_IF_ERROR(SetHeight(std::max(left_height, height_) + 1));
  }
  return left;
}

Result<ExprPtr> Parser::NotExpr_() {
  if (MatchKeyword("not")) {
    STARBURST_RETURN_IF_ERROR(EnterNesting());
    Result<ExprPtr> operand = NotExpr_();
    LeaveNesting();
    if (!operand.ok()) return operand.status();
    STARBURST_RETURN_IF_ERROR(SetHeight(height_ + 1));
    return MakeUnary(UnaryOp::kNot, std::move(operand).value());
  }
  return Predicate_();
}

Result<ExprPtr> Parser::Predicate_() {
  if (MatchKeyword("exists")) {
    STARBURST_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    STARBURST_ASSIGN_OR_RETURN(SelectPtr sel, Select_());
    STARBURST_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    STARBURST_RETURN_IF_ERROR(SetHeight(height_ + 1));
    return MakeExists(std::move(sel));
  }
  STARBURST_ASSIGN_OR_RETURN(ExprPtr left, Additive_());
  const int left_height = height_;
  if (MatchKeyword("is")) {
    bool negated = MatchKeyword("not");
    STARBURST_RETURN_IF_ERROR(ExpectKeyword("null"));
    STARBURST_RETURN_IF_ERROR(SetHeight(left_height + 1));
    return MakeUnary(negated ? UnaryOp::kIsNotNull : UnaryOp::kIsNull,
                     std::move(left));
  }
  if (CheckKeyword("not") && Peek(1).IsKeyword("in")) {
    Advance();
    Advance();
    STARBURST_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    STARBURST_ASSIGN_OR_RETURN(SelectPtr sel, Select_());
    STARBURST_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    STARBURST_RETURN_IF_ERROR(SetHeight(std::max(left_height, height_) + 2));
    return MakeUnary(UnaryOp::kNot, MakeIn(std::move(left), std::move(sel)));
  }
  if (MatchKeyword("in")) {
    STARBURST_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    STARBURST_ASSIGN_OR_RETURN(SelectPtr sel, Select_());
    STARBURST_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    STARBURST_RETURN_IF_ERROR(SetHeight(std::max(left_height, height_) + 1));
    return MakeIn(std::move(left), std::move(sel));
  }
  BinaryOp op;
  bool has_cmp = true;
  switch (Peek().type) {
    case TokenType::kEq:
      op = BinaryOp::kEq;
      break;
    case TokenType::kNe:
      op = BinaryOp::kNe;
      break;
    case TokenType::kLt:
      op = BinaryOp::kLt;
      break;
    case TokenType::kLe:
      op = BinaryOp::kLe;
      break;
    case TokenType::kGt:
      op = BinaryOp::kGt;
      break;
    case TokenType::kGe:
      op = BinaryOp::kGe;
      break;
    default:
      has_cmp = false;
      op = BinaryOp::kEq;
      break;
  }
  if (has_cmp) {
    Advance();
    STARBURST_ASSIGN_OR_RETURN(ExprPtr right, Additive_());
    STARBURST_RETURN_IF_ERROR(SetHeight(std::max(left_height, height_) + 1));
    return MakeBinary(op, std::move(left), std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::Additive_() {
  STARBURST_ASSIGN_OR_RETURN(ExprPtr left, Term_());
  while (Check(TokenType::kPlus) || Check(TokenType::kMinus)) {
    BinaryOp op = Check(TokenType::kPlus) ? BinaryOp::kAdd : BinaryOp::kSub;
    Advance();
    int left_height = height_;
    STARBURST_ASSIGN_OR_RETURN(ExprPtr right, Term_());
    left = MakeBinary(op, std::move(left), std::move(right));
    STARBURST_RETURN_IF_ERROR(SetHeight(std::max(left_height, height_) + 1));
  }
  return left;
}

Result<ExprPtr> Parser::Term_() {
  STARBURST_ASSIGN_OR_RETURN(ExprPtr left, Factor_());
  while (Check(TokenType::kStar) || Check(TokenType::kSlash) ||
         Check(TokenType::kPercent)) {
    BinaryOp op = Check(TokenType::kStar)    ? BinaryOp::kMul
                  : Check(TokenType::kSlash) ? BinaryOp::kDiv
                                             : BinaryOp::kMod;
    Advance();
    int left_height = height_;
    STARBURST_ASSIGN_OR_RETURN(ExprPtr right, Factor_());
    left = MakeBinary(op, std::move(left), std::move(right));
    STARBURST_RETURN_IF_ERROR(SetHeight(std::max(left_height, height_) + 1));
  }
  return left;
}

Result<ExprPtr> Parser::Factor_() {
  if (Match(TokenType::kMinus)) {
    STARBURST_RETURN_IF_ERROR(EnterNesting());
    Result<ExprPtr> operand = Factor_();
    LeaveNesting();
    if (!operand.ok()) return operand.status();
    STARBURST_RETURN_IF_ERROR(SetHeight(height_ + 1));
    return MakeUnary(UnaryOp::kNeg, std::move(operand).value());
  }
  return Primary_();
}

Result<ExprPtr> Parser::Primary_() {
  height_ = 1;  // leaves; the parenthesized cases below overwrite it
  const Token& tok = Peek();
  switch (tok.type) {
    case TokenType::kIntLiteral: {
      int64_t v = tok.int_value;
      Advance();
      return MakeIntLiteral(v);
    }
    case TokenType::kDoubleLiteral: {
      double v = tok.double_value;
      Advance();
      return MakeDoubleLiteral(v);
    }
    case TokenType::kStringLiteral: {
      std::string v = tok.text;
      Advance();
      return MakeStringLiteral(std::move(v));
    }
    case TokenType::kLParen: {
      Advance();
      if (CheckKeyword("select")) {
        STARBURST_ASSIGN_OR_RETURN(SelectPtr sel, Select_());
        STARBURST_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        STARBURST_RETURN_IF_ERROR(SetHeight(height_ + 1));
        return MakeScalarSubquery(std::move(sel));
      }
      STARBURST_ASSIGN_OR_RETURN(ExprPtr inner, Expr_());
      STARBURST_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return inner;
    }
    case TokenType::kKeyword: {
      if (tok.text == "null") {
        Advance();
        return MakeNullLiteral();
      }
      if (tok.text == "true") {
        Advance();
        return MakeBoolLiteral(true);
      }
      if (tok.text == "false") {
        Advance();
        return MakeBoolLiteral(false);
      }
      if (IsTransitionKeyword(tok)) {
        std::string qualifier = tok.text;
        Advance();
        STARBURST_RETURN_IF_ERROR(Expect(TokenType::kDot, "'.'"));
        if (!Check(TokenType::kIdentifier)) {
          return ErrorHere("expected column name after transition table");
        }
        std::string column = Advance().text;
        return MakeColumnRef(std::move(qualifier), std::move(column));
      }
      return ErrorHere("unexpected keyword in expression");
    }
    case TokenType::kIdentifier: {
      std::string first = Advance().text;
      if (Match(TokenType::kDot)) {
        if (!Check(TokenType::kIdentifier)) {
          return ErrorHere("expected column name after '.'");
        }
        std::string column = Advance().text;
        return MakeColumnRef(std::move(first), std::move(column));
      }
      return MakeColumnRef("", std::move(first));
    }
    default:
      return ErrorHere("expected an expression");
  }
}

Result<std::vector<std::string>> Parser::NameList_() {
  std::vector<std::string> names;
  do {
    if (!Check(TokenType::kIdentifier)) return ErrorHere("expected rule name");
    names.push_back(Advance().text);
  } while (Match(TokenType::kComma));
  return names;
}

}  // namespace starburst
