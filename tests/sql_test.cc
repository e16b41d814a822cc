// Tests for the SQL front door: lexer, parser, binder, end-to-end execution
// against the optimizer and executor, and one prepared statement run in
// every engine mode.

#include <gtest/gtest.h>

#include <climits>
#include <set>
#include <thread>

#include "sql/engine.h"
#include "util/rng.h"

namespace xprs {
namespace {

// ------------------------------------------------------------------ lexer

TEST(LexerTest, BasicTokens) {
  auto toks = Lex("SELECT * FROM r WHERE a >= 10");
  ASSERT_TRUE(toks.ok());
  ASSERT_EQ(toks->size(), 9u);  // incl. kEnd
  EXPECT_TRUE((*toks)[0].Is(TokKind::kIdent, "select"));
  EXPECT_TRUE((*toks)[1].Is(TokKind::kSymbol, "*"));
  EXPECT_TRUE((*toks)[5].Is(TokKind::kIdent, "a"));
  EXPECT_TRUE((*toks)[6].Is(TokKind::kSymbol, ">="));
  EXPECT_TRUE((*toks)[7].Is(TokKind::kInt));
  EXPECT_EQ((*toks)[7].int_value, 10);
}

TEST(LexerTest, StringsAndEscapes) {
  auto toks = Lex("x = 'ab''c'");
  ASSERT_TRUE(toks.ok());
  EXPECT_TRUE((*toks)[2].Is(TokKind::kString));
  EXPECT_EQ((*toks)[2].text, "ab'c");
}

TEST(LexerTest, NegativeNumbersAndNeSpellings) {
  auto toks = Lex("a <> -5 and b != 3");
  ASSERT_TRUE(toks.ok());
  EXPECT_TRUE((*toks)[1].Is(TokKind::kSymbol, "<>"));
  EXPECT_EQ((*toks)[2].int_value, -5);
  EXPECT_TRUE((*toks)[5].Is(TokKind::kSymbol, "<>"));  // != normalized
}

TEST(LexerTest, IntegerLiteralsOutsideInt4Rejected) {
  auto edge = Lex("a = -2147483648 and b = 2147483647");
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ((*edge)[2].int_value, INT32_MIN);
  EXPECT_EQ((*edge)[6].int_value, INT32_MAX);
  // Neither wrapped nor thrown past int64.
  EXPECT_FALSE(Lex("a = 2147483648").ok());
  EXPECT_FALSE(Lex("a = -2147483649").ok());
  EXPECT_FALSE(Lex("a = 99999999999999999999").ok());
}

TEST(LexerTest, UnterminatedStringRejected) {
  EXPECT_FALSE(Lex("x = 'oops").ok());
}

TEST(LexerTest, UnexpectedCharacterRejected) {
  EXPECT_FALSE(Lex("a # b").ok());
}

// ----------------------------------------------------------------- parser

TEST(ParserTest, SelectStarSingleTable) {
  auto q = ParseSql("SELECT * FROM r1");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->select.size(), 1u);
  EXPECT_EQ(q->select[0].kind, SqlSelectItem::Kind::kStar);
  ASSERT_EQ(q->from.size(), 1u);
  EXPECT_EQ(q->from[0].table, "r1");
  EXPECT_EQ(q->from[0].alias, "r1");
  EXPECT_TRUE(q->where.empty());
}

TEST(ParserTest, AliasesJoinsAndConditions) {
  auto q = ParseSql(
      "SELECT x.a, y.b FROM big x, small y "
      "WHERE x.a = y.a AND x.a BETWEEN 5 AND 10 AND y.b = 'txt'");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->from.size(), 2u);
  EXPECT_EQ(q->from[0].alias, "x");
  ASSERT_EQ(q->where.size(), 3u);
  EXPECT_EQ(q->where[0].kind, SqlCondition::Kind::kJoin);
  EXPECT_EQ(q->where[1].kind, SqlCondition::Kind::kBetween);
  EXPECT_EQ(q->where[1].lo, 5);
  EXPECT_EQ(q->where[1].hi, 10);
  EXPECT_EQ(q->where[2].kind, SqlCondition::Kind::kCompare);
  EXPECT_EQ(std::get<std::string>(q->where[2].constant), "txt");
}

TEST(ParserTest, AggregatesAndGroupBy) {
  auto q = ParseSql("SELECT count(a) FROM r GROUP BY a");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->select.size(), 1u);
  EXPECT_EQ(q->select[0].kind, SqlSelectItem::Kind::kAggregate);
  EXPECT_EQ(q->select[0].func, AggFunc::kCount);
  ASSERT_TRUE(q->group_by.has_value());
  EXPECT_EQ(q->group_by->column, "a");

  for (auto [sql, func] :
       std::vector<std::pair<const char*, AggFunc>>{
           {"SELECT sum(a) FROM r", AggFunc::kSum},
           {"SELECT min(a) FROM r", AggFunc::kMin},
           {"SELECT max(a) FROM r", AggFunc::kMax}}) {
    auto parsed = ParseSql(sql);
    ASSERT_TRUE(parsed.ok()) << sql;
    EXPECT_EQ(parsed->select[0].func, func) << sql;
  }
}

TEST(ParserTest, SyntaxErrorsRejected) {
  EXPECT_FALSE(ParseSql("SELECT FROM r").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM r WHERE").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM r WHERE a <").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM r trailing nonsense here").ok());
  EXPECT_FALSE(ParseSql("SELECT avg(a) FROM r").ok());  // unknown function
  EXPECT_FALSE(ParseSql("SELECT * FROM r WHERE a < b").ok());  // non-eq join
}

// ----------------------------------------------------------------- engine

class SqlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    array_ = std::make_unique<DiskArray>(4, DiskMode::kInstant);
    catalog_ = std::make_unique<Catalog>(array_.get());
    engine_ = std::make_unique<SqlEngine>(
        catalog_.get(), MachineConfig::PaperConfig(), &model_);

    Table* orders = catalog_->CreateTable("orders", Schema::PaperSchema())
                        .value();
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(orders->file()
                      .Append(Tuple({Value(int32_t{i % 100}),
                                     Value(std::string("o") +
                                           std::to_string(i))}))
                      .ok());
    }
    ASSERT_TRUE(orders->file().Flush().ok());
    ASSERT_TRUE(orders->BuildIndex(0).ok());
    ASSERT_TRUE(orders->ComputeStats().ok());

    Table* custs =
        catalog_->CreateTable("custs", Schema::PaperSchema()).value();
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(custs->file()
                      .Append(Tuple({Value(int32_t{i}),
                                     Value(std::string("c") +
                                           std::to_string(i))}))
                      .ok());
    }
    ASSERT_TRUE(custs->file().Flush().ok());
    ASSERT_TRUE(custs->BuildIndex(0).ok());
    ASSERT_TRUE(custs->ComputeStats().ok());
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<Catalog> catalog_;
  CostModel model_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_F(SqlEngineTest, SelectStar) {
  auto r = engine_->Execute("SELECT * FROM custs");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 100u);
  EXPECT_EQ(r->schema.num_columns(), 2u);
  EXPECT_EQ(r->schema.column(0).name, "custs.a");
}

TEST_F(SqlEngineTest, SelectionPredicates) {
  auto r = engine_->Execute("SELECT * FROM custs WHERE a BETWEEN 10 AND 19");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 10u);

  auto r2 = engine_->Execute("SELECT * FROM custs WHERE a >= 95");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->rows.size(), 5u);

  auto r3 = engine_->Execute("SELECT * FROM custs WHERE b = 'c7'");
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->rows.size(), 1u);
}

TEST_F(SqlEngineTest, TwoWayJoinWithProjection) {
  auto r = engine_->Execute(
      "SELECT o.b, c.b FROM orders o, custs c "
      "WHERE o.a = c.a AND c.a < 10");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // keys 0..9, each appears 3x in orders x 1 in custs.
  EXPECT_EQ(r->rows.size(), 30u);
  EXPECT_EQ(r->schema.num_columns(), 2u);
  EXPECT_EQ(r->schema.column(0).name, "o.b");
  for (const auto& row : r->rows) {
    EXPECT_EQ(std::get<std::string>(row.value(0))[0], 'o');
    EXPECT_EQ(std::get<std::string>(row.value(1))[0], 'c');
  }
}

TEST_F(SqlEngineTest, CountAndGroupBy) {
  auto r = engine_->Execute("SELECT count(a) FROM orders");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(std::get<int32_t>(r->rows[0].value(0)), 300);

  auto g = engine_->Execute(
      "SELECT count(a) FROM orders WHERE a < 5 GROUP BY a");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_EQ(g->rows.size(), 5u);
  for (const auto& row : g->rows)
    EXPECT_EQ(std::get<int32_t>(row.value(1)), 3);
}

TEST_F(SqlEngineTest, AggregateOverJoin) {
  auto r = engine_->Execute(
      "SELECT count(o.a) FROM orders o, custs c WHERE o.a = c.a");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(std::get<int32_t>(r->rows[0].value(0)), 300);
}

TEST_F(SqlEngineTest, ExplainReportsPlanAndCosts) {
  auto r = engine_->Explain(
      "SELECT * FROM orders o, custs c WHERE o.a = c.a");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
  EXPECT_GT(r->seqcost, 0.0);
  EXPECT_GT(r->parcost, 0.0);
  EXPECT_LT(r->parcost, r->seqcost);
  EXPECT_NE(r->plan_text.find("Join"), std::string::npos);
}

TEST_F(SqlEngineTest, BindErrors) {
  EXPECT_FALSE(engine_->Execute("SELECT * FROM nope").ok());
  EXPECT_FALSE(engine_->Execute("SELECT zz FROM custs").ok());
  EXPECT_FALSE(
      engine_->Execute("SELECT * FROM orders o, custs o WHERE o.a = 1").ok());
  // Ambiguous unqualified column over two tables sharing the schema.
  EXPECT_FALSE(
      engine_->Execute("SELECT a FROM orders, custs WHERE orders.a = custs.a")
          .ok());
  // Cross product (no join condition) is rejected by the enumerator.
  EXPECT_FALSE(engine_->Execute("SELECT * FROM orders, custs").ok());
  // GROUP BY without aggregate.
  EXPECT_FALSE(engine_->Execute("SELECT a FROM custs GROUP BY a").ok());
}

// Operands of the wrong type fail at Prepare, before anything runs: the
// executor's type CHECKs guard hand-built plans only. custs and orders are
// (a int4, b text).
TEST_F(SqlEngineTest, PrepareRejectsIllTypedOperands) {
  for (const char* sql : {
           "SELECT a FROM custs WHERE a = 'x'",
           "SELECT a FROM custs WHERE b < 10",
           "SELECT a FROM custs WHERE b BETWEEN 1 AND 5",
           "SELECT o.a FROM orders o, custs c WHERE o.a = c.b",
           "SELECT count(a) FROM custs GROUP BY b",
           "SELECT sum(b) FROM custs",
       }) {
    auto prepared = engine_->Prepare(sql);
    ASSERT_FALSE(prepared.ok()) << sql;
    EXPECT_EQ(prepared.status().code(), StatusCode::kInvalidArgument) << sql;
  }
  // Well-typed text and int4 comparisons still bind.
  EXPECT_TRUE(engine_->Prepare("SELECT a FROM custs WHERE b = 'c7'").ok());
  EXPECT_TRUE(engine_->Prepare("SELECT a FROM custs WHERE a < 10").ok());
}

TEST_F(SqlEngineTest, UnqualifiedColumnsOnSingleTable) {
  auto r = engine_->Execute("SELECT b FROM custs WHERE a = 42");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(r->rows[0].value(0)), "c42");
}

// Rows as an order-insensitive multiset.
std::multiset<std::string> Canonical(const SqlResult& result) {
  std::multiset<std::string> rows;
  for (const Tuple& t : result.rows) rows.insert(t.ToString());
  return rows;
}

const char* kPipelineQueries[] = {
    "SELECT * FROM custs WHERE a BETWEEN 10 AND 40",
    "SELECT o.b, c.b FROM orders o, custs c WHERE o.a = c.a AND c.a < 20",
    "SELECT count(o.a) FROM orders o, custs c WHERE o.a = c.a",
    "SELECT count(a) FROM orders WHERE a < 5 GROUP BY a",
};

TEST_F(SqlEngineTest, OnePreparedStatementRunsInEveryMode) {
  DiskArray spill_array(2, DiskMode::kInstant);
  std::vector<std::pair<const char*, RunOptions>> modes(6);
  modes[0].first = "serial";
  modes[1].first = "vectorized";
  modes[1].second.ctx.vectorized = true;
  modes[2].first = "spill";
  modes[2].second.ctx.spill.temp_array = &spill_array;
  modes[2].second.ctx.spill.memory_tuples = 8;
  modes[3].first = "parallel";
  modes[3].second.master.emplace();
  modes[4].first = "explain analyze";
  modes[4].second.profile = true;
  modes[5].first = "parallel explain analyze";
  modes[5].second.master.emplace();
  modes[5].second.profile = true;

  for (const char* sql : kPipelineQueries) {
    auto expected = engine_->Execute(sql);
    ASSERT_TRUE(expected.ok()) << sql << ": " << expected.status().ToString();
    auto prepared = engine_->Prepare(sql);
    ASSERT_TRUE(prepared.ok()) << sql;
    for (const auto& [mode, options] : modes) {
      auto r = engine_->Run(*prepared, options);
      ASSERT_TRUE(r.ok()) << sql << " [" << mode
                          << "]: " << r.status().ToString();
      EXPECT_EQ(r->schema.ToString(), expected->schema.ToString())
          << sql << " [" << mode << "]";
      EXPECT_EQ(Canonical(*r), Canonical(*expected))
          << sql << " [" << mode << "]";
      EXPECT_EQ(r->profile != nullptr, options.profile)
          << sql << " [" << mode << "]";
    }
  }
}

TEST_F(SqlEngineTest, PreparedStatementRunsTwiceAlike) {
  for (const char* sql : kPipelineQueries) {
    auto prepared = engine_->Prepare(sql);
    ASSERT_TRUE(prepared.ok()) << sql;
    auto first = engine_->Run(*prepared);
    auto second = engine_->Run(*prepared);
    ASSERT_TRUE(first.ok() && second.ok()) << sql;
    EXPECT_EQ(Canonical(*first), Canonical(*second)) << sql;
  }
}

TEST_F(SqlEngineTest, ConcurrentRunsOfOneStatementAgree) {
  const char* sql =
      "SELECT o.b, c.b FROM orders o, custs c WHERE o.a = c.a AND c.a < 20";
  auto expected = engine_->Execute(sql);
  ASSERT_TRUE(expected.ok());
  auto prepared = engine_->Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  for (bool parallel : {false, true}) {
    RunOptions options;
    if (parallel) options.master.emplace().max_slots = 2;
    std::vector<std::multiset<std::string>> results(4);
    std::vector<std::thread> threads;
    for (auto& result : results) {
      threads.emplace_back([&] {
        auto r = engine_->Run(*prepared, options);
        if (r.ok()) result = Canonical(*r);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const auto& result : results)
      EXPECT_EQ(result, Canonical(*expected)) << "parallel=" << parallel;
  }
}

TEST_F(SqlEngineTest, EstimateProfileGolden) {
  // Admission grants are sized from these figures, so a change to how
  // statements are prepared must not move them. The two joins build their
  // hash tables on the smaller, filtered custs side (the cost model charges
  // the materialized build input), so each holds a fraction of a page.
  struct Golden {
    const char* sql;
    double seq_time;
    double total_ios;
    IoPattern pattern;
    double memory_pages;
  };
  const Golden goldens[] = {
      {"SELECT * FROM custs", 0.0603618, 1, IoPattern::kSequential, 0},
      {"SELECT b FROM custs WHERE a = 42", 0.029036908571428571, 1,
       IoPattern::kRandom, 0},
      {"SELECT o.b, c.b FROM orders o, custs c WHERE o.a = c.a AND c.a < 10",
       0.28147440000000001, 2, IoPattern::kSequential, 0.1},
      {"SELECT count(a) FROM orders WHERE a < 5 GROUP BY a",
       0.15345779999999998, 1, IoPattern::kSequential, 0},
      {"SELECT count(o1.a) FROM orders o1, custs c, orders o2 "
       "WHERE o1.a = c.a AND c.a = o2.a AND c.a < 3",
       0.49187027999999999, 3, IoPattern::kSequential, 0.07},
  };
  for (const Golden& g : goldens) {
    auto estimate = engine_->EstimateProfile(g.sql);
    ASSERT_TRUE(estimate.ok()) << g.sql;
    EXPECT_DOUBLE_EQ(estimate->seq_time, g.seq_time) << g.sql;
    EXPECT_DOUBLE_EQ(estimate->total_ios, g.total_ios) << g.sql;
    EXPECT_EQ(estimate->pattern, g.pattern) << g.sql;
    EXPECT_DOUBLE_EQ(estimate->memory_pages, g.memory_pages) << g.sql;
  }
}

TEST_F(SqlEngineTest, ThreeWayJoinExecutes) {
  // orders ⋈ custs ⋈ orders (self-join through custs).
  auto r = engine_->Execute(
      "SELECT count(o1.a) FROM orders o1, custs c, orders o2 "
      "WHERE o1.a = c.a AND c.a = o2.a AND c.a < 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Keys 0..2: 3 o1 x 1 c x 3 o2 per key = 27 rows.
  EXPECT_EQ(std::get<int32_t>(r->rows[0].value(0)), 27);
}

}  // namespace
}  // namespace xprs
