// Self-test of the served benchmark's inputs: the tail-percentile rule,
// seeded statement sequences and the order-independent digest. Prints one
// line per failed check and exits non-zero if any failed.
//
//   served_workload_test

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "served_workload.h"
#include "util/rng.h"

namespace xprs {
namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

std::vector<std::string> Texts(const std::vector<Statement>& sequence) {
  std::vector<std::string> out;
  for (const Statement& s : sequence) out.push_back(s.sql);
  return out;
}

void TestTailRule() {
  // The highest ladder percentile with >= 10 samples beyond it.
  Expect(TailPercentile(19) == 50.0, "19 samples -> p50 (fallback)");
  Expect(TailPercentile(20) == 50.0, "20 samples -> p50");
  Expect(TailPercentile(40) == 75.0, "40 samples -> p75");
  Expect(TailPercentile(100) == 90.0, "100 samples -> p90");
  Expect(TailPercentile(199) == 90.0, "199 samples -> p90");
  Expect(TailPercentile(200) == 95.0, "200 samples -> p95");
  Expect(TailPercentile(999) == 95.0, "999 samples -> p95");
  Expect(TailPercentile(1000) == 99.0, "1000 samples -> p99");
  Expect(TailPercentile(2000) == 99.5, "2000 samples -> p99.5");
  Expect(TailPercentile(10000) == 99.9, "10000 samples -> p99.9");
  Expect(TailPercentile(1000000) == 99.9, "the ladder tops out at p99.9");
  for (size_t n = 20; n < 20000; n += 37) {
    const double p = TailPercentile(n);
    Expect(SamplesBeyond(n, p) >= kTailMinBeyond,
           "rule leaves >= 10 samples beyond at n=" + std::to_string(n));
  }
}

void TestSequences() {
  for (StatementFamily family :
       {StatementFamily::kOlap, StatementFamily::kPoint}) {
    const char* name = family == StatementFamily::kOlap ? "olap" : "point";
    const std::vector<Statement> a = BuildSequence(family, 1);
    const std::vector<Statement> b = BuildSequence(family, 1);
    const std::vector<Statement> c = BuildSequence(family, 2);
    Expect(Texts(a) == Texts(b),
           std::string(name) + ": same seed gives the same sequence");
    Expect(Texts(a) != Texts(c),
           std::string(name) + ": another seed gives another sequence");
    std::vector<int> per_template(static_cast<size_t>(NumTemplates(family)));
    for (const Statement& s : a) ++per_template[static_cast<size_t>(s.template_id)];
    const auto [lo, hi] =
        std::minmax_element(per_template.begin(), per_template.end());
    Expect(*hi - *lo <= 1,
           std::string(name) + ": every template has an equal share");
  }
  for (uint64_t seed : {1, 7, 9173}) {
    const std::vector<std::string> olap =
        Texts(BuildSequence(StatementFamily::kOlap, seed));
    Expect(olap.size() == kOlapStatements, "olap sequence length");
    Expect(std::set<std::string>(olap.begin(), olap.end()).size() ==
               olap.size(),
           "olap texts are distinct, so a run does not repeat them");
    const std::vector<std::string> point =
        Texts(BuildSequence(StatementFamily::kPoint, seed));
    Expect(std::set<std::string>(point.begin(), point.end()).size() ==
                   point.size() &&
               point.size() >= kPointTexts - 5,
           "point sequence holds ~kPointTexts distinct texts");
  }
  std::set<size_t> offsets;
  for (size_t s = 0; s < 4; ++s) offsets.insert(SessionOffset(s, 4, 96));
  Expect(offsets.size() == 4, "sessions enter the sequence at distinct offsets");
}

void TestDigest() {
  std::vector<Tuple> rows;
  for (int i = 0; i < 50; ++i)
    rows.push_back(Tuple({Value(i % 7), Value("row-" + std::to_string(i))}));
  const Digest base = DigestRows(rows);
  std::vector<Tuple> shuffled = rows;
  Rng rng(42);
  rng.Shuffle(&shuffled);
  Expect(DigestRows(shuffled) == base, "digest ignores row order");
  std::vector<Tuple> changed = rows;
  changed[3] = Tuple({Value(99), Value("row-3")});
  Expect(DigestRows(changed) != base, "digest sees a changed value");
  std::vector<Tuple> dropped(rows.begin(), rows.end() - 1);
  Expect(DigestRows(dropped) != base, "digest sees a missing row");
}

void TestWorkloads() {
  Expect(FindWorkload("olap_solo") != nullptr, "olap_solo exists");
  Expect(FindWorkload("olap_multi") != nullptr, "olap_multi exists");
  Expect(FindWorkload("point_lookup") != nullptr, "point_lookup exists");
  Expect(FindWorkload("nope") == nullptr, "unknown workload is rejected");
}

}  // namespace
}  // namespace perfbench
}  // namespace xprs

int main() {
  using namespace xprs::perfbench;
  TestTailRule();
  TestSequences();
  TestDigest();
  TestWorkloads();
  if (failures == 0) std::printf("served_workload_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
