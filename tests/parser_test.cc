#include <gtest/gtest.h>

#include "rulelang/parser.h"
#include "rulelang/printer.h"

namespace starburst {
namespace {

RuleDef MustParseRule(const std::string& src) {
  auto r = Parser::ParseRule(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nsource: " << src;
  return r.ok() ? std::move(r).value() : RuleDef{};
}

StmtPtr MustParseStmt(const std::string& src) {
  auto r = Parser::ParseStatement(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nsource: " << src;
  return r.ok() ? std::move(r).value() : nullptr;
}

ExprPtr MustParseExpr(const std::string& src) {
  auto r = Parser::ParseExpression(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nsource: " << src;
  return r.ok() ? std::move(r).value() : nullptr;
}

TEST(ParserTest, MinimalRule) {
  RuleDef rule = MustParseRule(
      "create rule r1 on emp when inserted then delete from emp");
  EXPECT_EQ(rule.name, "r1");
  EXPECT_EQ(rule.table, "emp");
  ASSERT_EQ(rule.events.size(), 1u);
  EXPECT_EQ(rule.events[0].kind, TriggerEvent::Kind::kInserted);
  EXPECT_EQ(rule.condition, nullptr);
  ASSERT_EQ(rule.actions.size(), 1u);
  EXPECT_EQ(rule.actions[0]->kind, StmtKind::kDelete);
}

TEST(ParserTest, RuleWithAllClauses) {
  RuleDef rule = MustParseRule(R"(
    create rule cap on emp
    when inserted, deleted, updated(salary, dept)
    if exists (select * from inserted where salary > 10)
    then update emp set salary = 10 where salary > 10;
         insert into log values (1)
    precedes other1, other2
    follows parent
  )");
  EXPECT_EQ(rule.name, "cap");
  ASSERT_EQ(rule.events.size(), 3u);
  EXPECT_EQ(rule.events[2].kind, TriggerEvent::Kind::kUpdated);
  ASSERT_EQ(rule.events[2].columns.size(), 2u);
  EXPECT_EQ(rule.events[2].columns[0], "salary");
  ASSERT_NE(rule.condition, nullptr);
  EXPECT_EQ(rule.condition->kind, ExprKind::kExists);
  ASSERT_EQ(rule.actions.size(), 2u);
  EXPECT_EQ(rule.actions[0]->kind, StmtKind::kUpdate);
  EXPECT_EQ(rule.actions[1]->kind, StmtKind::kInsert);
  ASSERT_EQ(rule.precedes.size(), 2u);
  EXPECT_EQ(rule.precedes[1], "other2");
  ASSERT_EQ(rule.follows.size(), 1u);
  EXPECT_EQ(rule.follows[0], "parent");
}

TEST(ParserTest, UpdatedWithoutColumnsMeansAll) {
  RuleDef rule =
      MustParseRule("create rule r on t when updated then rollback");
  ASSERT_EQ(rule.events.size(), 1u);
  EXPECT_EQ(rule.events[0].kind, TriggerEvent::Kind::kUpdated);
  EXPECT_TRUE(rule.events[0].columns.empty());
}

TEST(ParserTest, CreateTable) {
  StmtPtr stmt = MustParseStmt(
      "create table emp (id int, name string, salary double, active bool)");
  ASSERT_EQ(stmt->kind, StmtKind::kCreateTable);
  EXPECT_EQ(stmt->table, "emp");
  ASSERT_EQ(stmt->create_columns.size(), 4u);
  EXPECT_EQ(stmt->create_columns[0].type, ColumnType::kInt);
  EXPECT_EQ(stmt->create_columns[1].type, ColumnType::kString);
  EXPECT_EQ(stmt->create_columns[2].type, ColumnType::kDouble);
  EXPECT_EQ(stmt->create_columns[3].type, ColumnType::kBool);
}

TEST(ParserTest, InsertValuesMultiRow) {
  StmtPtr stmt =
      MustParseStmt("insert into t (a, b) values (1, 2), (3, 4)");
  ASSERT_EQ(stmt->kind, StmtKind::kInsert);
  EXPECT_EQ(stmt->insert_columns.size(), 2u);
  ASSERT_EQ(stmt->insert_rows.size(), 2u);
  EXPECT_EQ(stmt->insert_rows[1][0]->literal.int_value, 3);
}

TEST(ParserTest, InsertSelect) {
  StmtPtr stmt =
      MustParseStmt("insert into t select a, b from s where a > 0");
  ASSERT_EQ(stmt->kind, StmtKind::kInsert);
  ASSERT_NE(stmt->insert_select, nullptr);
  EXPECT_EQ(stmt->insert_select->items.size(), 2u);
}

TEST(ParserTest, DeleteWithWhere) {
  StmtPtr stmt = MustParseStmt("delete from t where a = 1 and b <> 2");
  ASSERT_EQ(stmt->kind, StmtKind::kDelete);
  ASSERT_NE(stmt->where, nullptr);
  EXPECT_EQ(stmt->where->binary_op, BinaryOp::kAnd);
}

TEST(ParserTest, UpdateMultipleAssignments) {
  StmtPtr stmt = MustParseStmt("update t set a = a + 1, b = 0 where a < 5");
  ASSERT_EQ(stmt->kind, StmtKind::kUpdate);
  ASSERT_EQ(stmt->assignments.size(), 2u);
  EXPECT_EQ(stmt->assignments[0].column, "a");
}

TEST(ParserTest, SelectWithAggregatesAndAliases) {
  StmtPtr stmt = MustParseStmt(
      "select count(*), sum(x.a), min(a), max(a), avg(a) from t as x");
  ASSERT_EQ(stmt->kind, StmtKind::kSelect);
  const SelectStmt& sel = *stmt->select;
  ASSERT_EQ(sel.items.size(), 5u);
  EXPECT_EQ(sel.items[0].func, AggFunc::kCount);
  EXPECT_TRUE(sel.items[0].is_star);
  EXPECT_EQ(sel.items[1].func, AggFunc::kSum);
  EXPECT_EQ(sel.items[4].func, AggFunc::kAvg);
  ASSERT_EQ(sel.from.size(), 1u);
  EXPECT_EQ(sel.from[0].alias, "x");
  EXPECT_TRUE(sel.IsAggregate());
}

TEST(ParserTest, SelectFromTransitionTables) {
  StmtPtr stmt = MustParseStmt(
      "select * from inserted, old_updated where inserted.a = old_updated.a");
  const SelectStmt& sel = *stmt->select;
  ASSERT_EQ(sel.from.size(), 2u);
  EXPECT_TRUE(sel.from[0].is_transition);
  EXPECT_EQ(sel.from[0].transition, TransitionTableKind::kInserted);
  EXPECT_EQ(sel.from[1].transition, TransitionTableKind::kOldUpdated);
}

TEST(ParserTest, TransitionColumnRef) {
  ExprPtr e = MustParseExpr("new_updated.salary > old_updated.salary");
  ASSERT_EQ(e->kind, ExprKind::kBinary);
  EXPECT_EQ(e->left->qualifier, "new_updated");
  EXPECT_EQ(e->right->qualifier, "old_updated");
}

TEST(ParserTest, OperatorPrecedence) {
  // a + b * c parses as a + (b * c).
  ExprPtr e = MustParseExpr("a + b * c");
  ASSERT_EQ(e->binary_op, BinaryOp::kAdd);
  EXPECT_EQ(e->right->binary_op, BinaryOp::kMul);

  // not a = b parses as not (a = b)? No: NOT binds looser than comparison.
  ExprPtr n = MustParseExpr("not a = b");
  ASSERT_EQ(n->kind, ExprKind::kUnary);
  EXPECT_EQ(n->unary_op, UnaryOp::kNot);
  EXPECT_EQ(n->left->binary_op, BinaryOp::kEq);

  // and/or precedence: a or b and c = a or (b and c).
  ExprPtr o = MustParseExpr("x or y and z");
  ASSERT_EQ(o->binary_op, BinaryOp::kOr);
  EXPECT_EQ(o->right->binary_op, BinaryOp::kAnd);
}

TEST(ParserTest, IsNullAndInSubquery) {
  ExprPtr e1 = MustParseExpr("a is null");
  EXPECT_EQ(e1->unary_op, UnaryOp::kIsNull);
  ExprPtr e2 = MustParseExpr("a is not null");
  EXPECT_EQ(e2->unary_op, UnaryOp::kIsNotNull);
  ExprPtr e3 = MustParseExpr("a in (select b from t)");
  EXPECT_EQ(e3->kind, ExprKind::kIn);
  ExprPtr e4 = MustParseExpr("a not in (select b from t)");
  ASSERT_EQ(e4->kind, ExprKind::kUnary);
  EXPECT_EQ(e4->left->kind, ExprKind::kIn);
}

TEST(ParserTest, ScalarSubquery) {
  ExprPtr e = MustParseExpr("(select count(*) from t) > 3");
  ASSERT_EQ(e->kind, ExprKind::kBinary);
  EXPECT_EQ(e->left->kind, ExprKind::kScalarSubquery);
}

TEST(ParserTest, NegativeNumbersAndUnaryMinus) {
  ExprPtr e = MustParseExpr("-a * -2");
  ASSERT_EQ(e->binary_op, BinaryOp::kMul);
  EXPECT_EQ(e->left->kind, ExprKind::kUnary);
  EXPECT_EQ(e->left->unary_op, UnaryOp::kNeg);
}

TEST(ParserTest, LiteralKinds) {
  EXPECT_EQ(MustParseExpr("null")->literal.kind, LiteralValue::Kind::kNull);
  EXPECT_EQ(MustParseExpr("true")->literal.kind, LiteralValue::Kind::kBool);
  EXPECT_EQ(MustParseExpr("'hi'")->literal.kind, LiteralValue::Kind::kString);
  EXPECT_EQ(MustParseExpr("2.5")->literal.kind, LiteralValue::Kind::kDouble);
}

TEST(ParserTest, ScriptMixesTablesRulesAndDml) {
  // Note: a rule's action list extends until `precedes`/`follows`, another
  // `create`, or end of input, so DML statements must come BEFORE rule
  // definitions in a script (otherwise they parse as extra actions).
  auto script = Parser::ParseScript(R"(
    create table t (a int);
    insert into t values (1);
    create rule r on t when inserted then delete from t;
  )");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script.value().rules.size(), 1u);
  EXPECT_EQ(script.value().statements.size(), 2u);
  ASSERT_EQ(script.value().items.size(), 3u);
  EXPECT_EQ(script.value().items[0], Script::ItemKind::kStatement);
  EXPECT_EQ(script.value().items[1], Script::ItemKind::kStatement);
  EXPECT_EQ(script.value().items[2], Script::ItemKind::kRule);
}

TEST(ParserTest, DmlAfterRuleParsesAsAction) {
  // The documented flip side of the ambiguity above.
  auto script = Parser::ParseScript(
      "create rule r on t when inserted then delete from t; "
      "insert into t values (1);");
  ASSERT_TRUE(script.ok());
  ASSERT_EQ(script.value().rules.size(), 1u);
  EXPECT_EQ(script.value().rules[0].actions.size(), 2u);
  EXPECT_TRUE(script.value().statements.empty());
}

TEST(ParserTest, ErrorsCarryLineInfo) {
  auto r = Parser::ParseRule("create rule r on t\nwhen banana then rollback");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().ToString();
}

TEST(ParserTest, RejectsTrailingInput) {
  EXPECT_FALSE(Parser::ParseExpression("1 + 2 extra").ok());
  EXPECT_FALSE(Parser::ParseStatement("rollback rollback").ok());
}

TEST(ParserTest, RejectsCreateTableAsRuleAction) {
  auto r = Parser::ParseRule(
      "create rule r on t when inserted then create table x (a int)");
  ASSERT_FALSE(r.ok());
}

TEST(ParserTest, RejectsMissingFrom) {
  EXPECT_FALSE(Parser::ParseStatement("select 1").ok());
}

TEST(ParserTest, RollbackAction) {
  RuleDef rule = MustParseRule("create rule r on t when deleted then rollback");
  ASSERT_EQ(rule.actions.size(), 1u);
  EXPECT_EQ(rule.actions[0]->kind, StmtKind::kRollback);
}

/// Robustness sweep: mutated scripts must yield a clean parse or a clean
/// error — never a crash, never an empty diagnostic.
class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, MutatedScriptsFailGracefully) {
  static const std::string kBase =
      "create table t (a int, b string);\n"
      "create table s (x int);\n"
      "insert into t values (1, 'one'), (2, 'two');\n"
      "create rule cap on t when inserted, updated(a) "
      "if exists (select * from inserted where a > 10) "
      "then update t set a = 10 where a > 10; "
      "insert into s select a from new_updated "
      "precedes other;\n"
      "create rule other on s when deleted then rollback;\n";
  uint64_t seed = GetParam();
  uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  auto next = [&state](uint64_t n) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % n;
  };
  std::string mutated = kBase;
  int mutations = 1 + static_cast<int>(next(4));
  for (int m = 0; m < mutations && !mutated.empty(); ++m) {
    size_t pos = static_cast<size_t>(next(mutated.size()));
    switch (next(4)) {
      case 0:  // delete a character
        mutated.erase(pos, 1);
        break;
      case 1:  // replace with a random printable character
        mutated[pos] = static_cast<char>(' ' + next(95));
        break;
      case 2:  // truncate
        mutated.resize(pos);
        break;
      default:  // duplicate a chunk
        mutated.insert(pos, mutated.substr(pos, next(16) + 1));
        break;
    }
  }
  auto result = Parser::ParseScript(mutated);
  if (!result.ok()) {
    EXPECT_FALSE(result.status().message().empty());
    EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Range<uint64_t>(0, 60));

TEST(ParserTest, CloneIsDeep) {
  RuleDef rule = MustParseRule(R"(
    create rule r on t when inserted
    if exists (select * from inserted where a > 1)
    then insert into t values (1, 2); update t set a = 2 where a = 1
  )");
  RuleDef clone = rule.Clone();
  EXPECT_EQ(RuleToString(rule), RuleToString(clone));
  EXPECT_NE(rule.condition.get(), clone.condition.get());
  EXPECT_NE(rule.actions[0].get(), clone.actions[0].get());
}

// Expression nesting is bounded at parse time (Parser::kMaxExprDepth).
// Each shape below is a body under 1 MB that used to crash the parser's
// caller: deep parentheses overflowed the recursive descent itself, and the
// long chains parsed into a left-deep tree whose recursive destructor
// overflowed the stack.

std::string Repeat(const std::string& piece, int times) {
  std::string out;
  out.reserve(piece.size() * static_cast<size_t>(times));
  for (int i = 0; i < times; ++i) out += piece;
  return out;
}

void ExpectLimitExceeded(const std::string& sql) {
  auto r = Parser::ParseStatement(sql);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kLimitExceeded)
      << r.status().ToString();
}

TEST(ParserDepthTest, DeepParenthesesAreRejected) {
  ExpectLimitExceeded("select * from t where " + std::string(100000, '('));
  ExpectLimitExceeded("select * from t where " + std::string(100000, '(') +
                      "1" + std::string(100000, ')'));
}

TEST(ParserDepthTest, LongArithmeticChainIsRejected) {
  ExpectLimitExceeded("select * from t where a = 1" + Repeat("+1", 200000));
}

TEST(ParserDepthTest, RepeatedUnaryOperatorsAreRejected) {
  ExpectLimitExceeded("select * from t where " + Repeat("not ", 200000) +
                      "a = 1");
  // Spaced out: "--" starts a comment.
  ExpectLimitExceeded("select * from t where a = " + Repeat("- ", 200000) +
                      "1");
}

TEST(ParserDepthTest, LongOrChainIsRejected) {
  ExpectLimitExceeded("select * from t where a = 1" +
                      Repeat(" or 1 = 1", 200000));
}

TEST(ParserDepthTest, BoundIsExactForChainsAndNesting) {
  const int k = Parser::kMaxExprDepth;
  // A chain of k - 1 operators over k leaves is a tree of height k.
  EXPECT_TRUE(Parser::ParseExpression("1" + Repeat("+1", k - 1)).ok());
  auto chain = Parser::ParseExpression("1" + Repeat("+1", k));
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.status().code(), StatusCode::kLimitExceeded);
  // The outermost expression is one level; each parenthesis adds one.
  auto nested = [](int parens) {
    return Parser::ParseExpression(std::string(parens, '(') + "1" +
                                   std::string(parens, ')'));
  };
  EXPECT_TRUE(nested(k - 1).ok());
  auto too_deep = nested(k);
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.status().code(), StatusCode::kLimitExceeded);
}

TEST(ParserDepthTest, SubqueriesCountTowardTheHeight) {
  // Each exists level adds the exists node plus the comparison inside it.
  std::string deep = "a = 1";
  for (int i = 0; i < Parser::kMaxExprDepth; ++i) {
    deep = "exists (select * from t where " + deep + ")";
  }
  ExpectLimitExceeded("select * from t where " + deep);
  // A deep operand on the left of a chain: the chain's operators stack on
  // top of its height, not on the parser's nesting.
  const int half = Parser::kMaxExprDepth / 2 + 1;
  ExpectLimitExceeded("select * from t where (" + Repeat("not ", half) +
                      "a = 1)" + Repeat(" or a = 1", half));
}

}  // namespace
}  // namespace starburst
