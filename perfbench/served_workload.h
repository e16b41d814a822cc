// The served benchmark's inputs and bookkeeping: workload table, seeded
// statement sequences over the macro schema, the order-independent result
// digest and the tail-percentile rule.
//
// Everything here is deterministic for a given seed, so the self-test
// (served_workload_test.cc) can pin it down without running a server.

#ifndef XPRS_PERFBENCH_SERVED_WORKLOAD_H_
#define XPRS_PERFBENCH_SERVED_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/tuple.h"

namespace xprs {
namespace perfbench {

/// Macro schema scale the benchmark loads (lineitem = 48,000 rows).
inline constexpr double kMacroScale = 8.0;
/// Buffer-pool frames: larger than the point tables, smaller than the olap
/// scan set, so the two workload families sit on opposite sides of it.
inline constexpr size_t kPoolFrames = 256;
/// Distinct point-lookup texts per seed. Four sessions replay them about a
/// thousand times each in a 30 s run, so most texts repeat.
inline constexpr size_t kPointTexts = 400;
/// Distinct analytic statements per seed (one sequence, shared by the olap
/// workloads and entered by each session at its own offset); a multiple
/// of the olap template count. One session completes about 1,000 in a
/// 30 s run, so olap_solo does not run a text twice.
inline constexpr size_t kOlapStatements = 1500;

enum class StatementFamily { kOlap, kPoint };

struct WorkloadSpec {
  const char* name;
  StatementFamily family;
  /// Closed-loop sessions; 0 = one per hardware thread.
  int sessions;
};

const std::vector<WorkloadSpec>& Workloads();
/// nullptr when `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);

/// One statement and the template it was drawn from.
struct Statement {
  std::string sql;
  int template_id = 0;
};

/// Number of templates of a family (ids are 0 .. n-1).
int NumTemplates(StatementFamily family);
const char* TemplateName(StatementFamily family, int template_id);

/// The seeded statement sequence every session of a workload replays,
/// each from its own offset (SessionOffset). Same seed, same sequence.
/// Every text in a sequence is distinct.
std::vector<Statement> BuildSequence(StatementFamily family, uint64_t seed);

/// Where session `session` of `sessions` enters a sequence of `length`.
size_t SessionOffset(size_t session, size_t sessions, size_t length);

/// Order-independent digest of a result: row count plus the wrapping sum
/// of per-row FNV-1a hashes of the rendered tuples.
struct Digest {
  uint64_t rows = 0;
  uint64_t checksum = 0;
  bool operator==(const Digest& o) const {
    return rows == o.rows && checksum == o.checksum;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};
Digest DigestRows(const std::vector<Tuple>& rows);

/// The tail-percentile rule: the highest percentile of kTailLadder with at
/// least kTailMinBeyond of `samples` strictly beyond it; 50 when none has.
/// BENCHMARK.json fixes each workload's percentile by this rule at the
/// reference run length; a run that falls short warns.
inline constexpr double kTailLadder[] = {50.0, 75.0, 90.0, 95.0,
                                         99.0, 99.5, 99.9};
inline constexpr double kTailMinBeyond = 10.0;
double TailPercentile(size_t samples);
/// Samples beyond percentile `p` of `samples`, rounded to a millionth so
/// 100 samples leave exactly 10 beyond p90.
double SamplesBeyond(size_t samples, double p);

}  // namespace perfbench
}  // namespace xprs

#endif  // XPRS_PERFBENCH_SERVED_WORKLOAD_H_
