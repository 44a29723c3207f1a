#ifndef STARBURST_RULELANG_PARSER_H_
#define STARBURST_RULELANG_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "rulelang/ast.h"
#include "rulelang/token.h"

namespace starburst {

/// Recursive-descent parser for the Starburst rule language and its SQL DML
/// subset. The parser is purely syntactic: name resolution against a Schema
/// happens later (engine binding / rule-catalog validation).
///
/// Entry points parse a whole script, a single rule, a single statement, or
/// a standalone expression. All entry points require the full input to be
/// consumed.
class Parser {
 public:
  /// Bound on expression nesting. It caps both the parser's own recursion
  /// (parentheses, subqueries, `not`, unary minus) and the height of every
  /// expression tree it builds, where each operator of a left-deep binary
  /// chain (`a + b + c`, `p or q or r`) adds one level. Deeper input fails
  /// with Status::LimitExceeded before the tree grows past the bound, so
  /// no recursive pass over a parsed AST (destruction, evaluation,
  /// printing, analysis) can exhaust the stack. Each parenthesized level
  /// costs about nine parser frames; 256 levels stay well inside a
  /// thread's 8 MB stack even in a sanitized debug build, where 1000 do
  /// not, and are far above what hand-written rules nest.
  static constexpr int kMaxExprDepth = 256;

  /// Parses a script of interleaved `create table`, `create rule`, and DML
  /// statements separated by semicolons (trailing semicolon optional).
  ///
  /// Note the grammar's one inherent ambiguity: a rule's THEN clause is a
  /// semicolon-separated statement list terminated by `precedes`/`follows`,
  /// another `create`, or end of input — so a DML statement written
  /// directly after a rule parses as an additional action of that rule.
  /// Put DML before rule definitions in mixed scripts.
  static Result<Script> ParseScript(std::string_view source);

  /// Parses exactly one `create rule` definition.
  static Result<RuleDef> ParseRule(std::string_view source);

  /// Parses exactly one statement (DDL or DML).
  static Result<StmtPtr> ParseStatement(std::string_view source);

  /// Parses a standalone expression (useful for tests).
  static Result<ExprPtr> ParseExpression(std::string_view source);

 private:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek(int ahead = 0) const;
  const Token& Advance();
  bool Check(TokenType type) const;
  bool CheckKeyword(const char* kw) const;
  bool Match(TokenType type);
  bool MatchKeyword(const char* kw);
  Status Expect(TokenType type, const char* what);
  Status ExpectKeyword(const char* kw);
  Status ErrorHere(const std::string& message) const;

  Result<Script> Script_();
  Result<RuleDef> Rule_();
  Result<TriggerEvent> Event_();
  Result<StmtPtr> Statement_();
  Result<StmtPtr> CreateTable_();
  Result<SelectPtr> Select_();
  Result<SelectItem> SelectItem_();
  Result<TableRef> TableRef_();
  Result<StmtPtr> Insert_();
  Result<StmtPtr> Delete_();
  Result<StmtPtr> Update_();
  Result<ExprPtr> Expr_();
  Result<ExprPtr> OrExpr_();
  Result<ExprPtr> AndExpr_();
  Result<ExprPtr> NotExpr_();
  Result<ExprPtr> Predicate_();
  Result<ExprPtr> Additive_();
  Result<ExprPtr> Term_();
  Result<ExprPtr> Factor_();
  Result<ExprPtr> Primary_();
  Result<std::vector<std::string>> NameList_();

  /// True when the current token can start a DML/DDL statement.
  bool AtStatementStart() const;

  /// Enters one level of recursive descent, failing past kMaxExprDepth;
  /// on success the caller runs LeaveNesting() once the nested production
  /// returns.
  Status EnterNesting();
  void LeaveNesting() { --nesting_; }
  /// Records `height` as the height of the expression just built and
  /// fails once it passes kMaxExprDepth.
  Status SetHeight(int height);
  Status DepthError() const;

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  /// Current recursive-descent depth through the expression grammar.
  int nesting_ = 0;
  /// Height of the expression most recently returned by an expression
  /// production (a leaf is 1); after Select_(), the tallest expression in
  /// the select (0 when it has none).
  int height_ = 0;
};

}  // namespace starburst

#endif  // STARBURST_RULELANG_PARSER_H_
