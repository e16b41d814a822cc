#include "served_workload.h"

#include <cmath>
#include <iterator>

#include "util/rng.h"
#include "util/str.h"

namespace xprs {
namespace perfbench {

namespace {

// Stream ids mixed into the seed so the two families draw independently.
constexpr uint64_t kOlapStream = 0x01A9;
constexpr uint64_t kPointStream = 0x9017;

const char* const kOlapTemplateNames[] = {
    "lineitem_part_join",   "lineitem_orders_join", "orders_customer_join",
    "lineitem_group_by",    "lineitem_range_agg",
};

const char* const kPointTemplateNames[] = {
    "customer_eq", "orders_eq", "part_eq", "orders_count_eq", "customer_col_eq",
};

// The aggregate an olap text applies. It varies the text, not the cost.
const char* const kAggregates[] = {"count", "sum", "min", "max"};

// An olap template: `format` takes an aggregate and a key range
// [lo, lo + width]. The width sets the statement's cost; lo and the
// aggregate only vary the text. Constants assume the macro schema's key
// range [0, 100). Each template stays a full scan of its big side.
struct OlapTemplate {
  const char* format;
  int width_lo, width_hi;
  int lo_max;
};

const OlapTemplate kOlapTemplates[] = {
    {"SELECT %s(l.a) FROM lineitem l, part p "
     "WHERE l.a = p.a AND p.a BETWEEN %d AND %d",
     29, 59, 4},
    {"SELECT %s(l.a) FROM lineitem l, orders o "
     "WHERE l.a = o.a AND o.a BETWEEN %d AND %d",
     1, 1, 98},
    {"SELECT %s(o.a) FROM orders o, customer c "
     "WHERE o.a = c.a AND c.a BETWEEN %d AND %d",
     19, 59, 4},
    {"SELECT %s(a) FROM lineitem WHERE a BETWEEN %d AND %d GROUP BY a",
     40, 69, 30},
    {"SELECT %s(a) FROM lineitem WHERE a BETWEEN %d AND %d", 30, 59, 40},
};
static_assert(std::size(kOlapTemplates) == std::size(kOlapTemplateNames));

// `count` distinct texts of one olap template, stratified over its width:
// every text of the template, ordered by width (in seeded order within
// one width), sampled at evenly spaced points from a seeded offset.
std::vector<std::string> OlapTexts(const OlapTemplate& t, size_t count,
                                   Rng* rng) {
  std::vector<std::string> all;
  for (int width = t.width_lo; width <= t.width_hi; ++width) {
    std::vector<std::string> same_width;
    for (int lo = 0; lo <= t.lo_max; ++lo)
      for (const char* agg : kAggregates)
        same_width.push_back(StrFormat(t.format, agg, lo, lo + width));
    rng->Shuffle(&same_width);
    all.insert(all.end(), same_width.begin(), same_width.end());
  }
  // Points are at least one apart as long as the template has `count`
  // texts, so no text is taken twice.
  const double step =
      static_cast<double>(all.size()) / static_cast<double>(count);
  const double offset = rng->NextDouble();
  std::vector<std::string> texts;
  for (size_t i = 0; i < count; ++i)
    texts.push_back(
        all[static_cast<size_t>((static_cast<double>(i) + offset) * step)]);
  rng->Shuffle(&texts);
  return texts;
}

// Index-served equality lookups on the three small tables. Two-key
// ranges (a BETWEEN k AND k+1) plan as SeqScan under the cost model, so
// the purpose guard would reject them.
std::string PointSql(int template_id, int key) {
  switch (template_id) {
    case 0:
      return StrFormat("SELECT * FROM customer WHERE a = %d", key);
    case 1:
      return StrFormat("SELECT * FROM orders WHERE a = %d", key);
    case 2:
      return StrFormat("SELECT * FROM part WHERE a = %d", key);
    case 3:
      return StrFormat("SELECT count(a) FROM orders WHERE a = %d", key);
    default:
      return StrFormat("SELECT b FROM customer WHERE a = %d", key);
  }
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {"olap_solo", StatementFamily::kOlap, 1},
      {"olap_multi", StatementFamily::kOlap, 0},
      {"point_lookup", StatementFamily::kPoint, 4},
  };
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads())
    if (name == w.name) return &w;
  return nullptr;
}

int NumTemplates(StatementFamily family) {
  return family == StatementFamily::kOlap
             ? static_cast<int>(std::size(kOlapTemplateNames))
             : static_cast<int>(std::size(kPointTemplateNames));
}

const char* TemplateName(StatementFamily family, int template_id) {
  return family == StatementFamily::kOlap ? kOlapTemplateNames[template_id]
                                          : kPointTemplateNames[template_id];
}

std::vector<Statement> BuildSequence(StatementFamily family, uint64_t seed) {
  const int templates = NumTemplates(family);
  std::vector<Statement> sequence;
  if (family == StatementFamily::kOlap) {
    // Each block of `templates` statements holds every template once, in
    // seeded order, so every stretch of the sequence has the same mix and
    // every seed the same cost profile with different texts.
    Rng rng(seed ^ kOlapStream);
    const size_t per_template = kOlapStatements / static_cast<size_t>(templates);
    std::vector<std::vector<std::string>> texts;
    for (const OlapTemplate& t : kOlapTemplates)
      texts.push_back(OlapTexts(t, per_template, &rng));
    std::vector<int> block(static_cast<size_t>(templates));
    for (size_t b = 0; b < per_template; ++b) {
      for (int t = 0; t < templates; ++t) block[static_cast<size_t>(t)] = t;
      rng.Shuffle(&block);
      for (int t : block)
        sequence.push_back({texts[static_cast<size_t>(t)][b], t});
    }
    return sequence;
  }
  // Point lookups: kPointTexts distinct (template, key) pairs, an equal
  // share per template, replayed in seeded order.
  Rng rng(seed ^ kPointStream);
  const size_t per_template = kPointTexts / static_cast<size_t>(templates);
  for (int t = 0; t < templates; ++t) {
    std::vector<int> keys;
    for (int k = 0; k < 100; ++k) keys.push_back(k);
    rng.Shuffle(&keys);
    for (size_t i = 0; i < per_template && i < keys.size(); ++i)
      sequence.push_back({PointSql(t, keys[i]), t});
  }
  rng.Shuffle(&sequence);
  return sequence;
}

size_t SessionOffset(size_t session, size_t sessions, size_t length) {
  if (sessions == 0 || length == 0) return 0;
  return (session * length) / sessions;
}

Digest DigestRows(const std::vector<Tuple>& rows) {
  Digest d;
  for (const Tuple& row : rows) {
    ++d.rows;
    d.checksum += Fnv1a(row.ToString());
  }
  return d;
}

double SamplesBeyond(size_t samples, double p) {
  const double beyond = static_cast<double>(samples) * (100.0 - p) / 100.0;
  return std::round(beyond * 1e6) / 1e6;
}

double TailPercentile(size_t samples) {
  double chosen = kTailLadder[0];
  for (double p : kTailLadder)
    if (SamplesBeyond(samples, p) >= kTailMinBeyond) chosen = p;
  return chosen;
}

}  // namespace perfbench
}  // namespace xprs
