// Unit tests for the util module: Status, Rng, stats, strings.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/str.h"

namespace xprs {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("relation r1");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "relation r1");
  EXPECT_EQ(s.ToString(), "NotFound: relation r1");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kIoError); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::Internal("boom");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
}

Status FailingHelper() { return Status::IoError("disk 3"); }

Status PropagatingHelper() {
  XPRS_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  Status s = PropagatingHelper();
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

StatusOr<int> GiveSeven() { return 7; }

Status UseAssignOrReturn(int* out) {
  XPRS_ASSIGN_OR_RETURN(int v, GiveSeven());
  *out = v;
  return Status::OK();
}

TEST(StatusTest, AssignOrReturnAssigns) {
  int out = 0;
  ASSERT_TRUE(UseAssignOrReturn(&out).ok());
  EXPECT_EQ(out, 7);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextUint64InRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextUint64(13), 13u);
}

TEST(RngTest, NextIntBoundsInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextDoubleRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble(5.0, 30.0);
    EXPECT_GE(d, 5.0);
    EXPECT_LT(d, 30.0);
  }
}

TEST(RngTest, MeanIsCentered) {
  Rng rng(17);
  RunningStat st;
  for (int i = 0; i < 20000; ++i) st.Add(rng.NextDouble());
  EXPECT_NEAR(st.mean(), 0.5, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(23);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(RunningStatTest, BasicMoments) {
  RunningStat st;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.Add(x);
  EXPECT_EQ(st.count(), 8u);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.stddev(), 2.1380899, 1e-6);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
  EXPECT_DOUBLE_EQ(st.sum(), 40.0);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_EQ(st.mean(), 0.0);
  EXPECT_EQ(st.variance(), 0.0);
}

TEST(PercentilesTest, ExactQuartiles) {
  Percentiles p;
  for (int i = 1; i <= 101; ++i) p.Add(i);
  EXPECT_DOUBLE_EQ(p.Get(0), 1.0);
  EXPECT_DOUBLE_EQ(p.Get(50), 51.0);
  EXPECT_DOUBLE_EQ(p.Get(100), 101.0);
}

TEST(TextTableTest, AlignsColumns) {
  TextTable t({"name", "x"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "22"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // All four lines (header, rule, two rows).
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(StrTest, FormatBasics) {
  EXPECT_EQ(StrFormat("x=%d y=%.1f", 3, 2.5), "x=3 y=2.5");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StrTest, CatAndJoin) {
  EXPECT_EQ(StrCat("a", 1, "b"), "a1b");
  std::vector<int> v = {1, 2, 3};
  EXPECT_EQ(StrJoin(v, ", "), "1, 2, 3");
}

TEST(StrTest, SplitKeepsEmptyFields) {
  auto parts = StrSplit("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

}  // namespace
}  // namespace xprs
