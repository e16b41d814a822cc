// SqlEngine: binds parsed SQL against a catalog, optimizes it with the
// two-phase optimizer, executes the plan, and projects the requested
// columns — the front door a downstream user talks to.

#ifndef XPRS_SQL_ENGINE_H_
#define XPRS_SQL_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "opt/two_phase.h"
#include "parallel/master.h"
#include "sql/parser.h"

namespace xprs {

/// Result of one statement.
struct SqlResult {
  Schema schema;
  std::vector<Tuple> rows;
  /// Optimizer figures for the executed plan.
  double seqcost = 0.0;
  double parcost = 0.0;
  /// Pretty-printed physical plan (EXPLAIN-style).
  std::string plan_text;

  /// EXPLAIN ANALYZE only: annotated plan with actual rows/pages/time next
  /// to the optimizer estimates, plus the fragment / adjustment-timeline /
  /// utilization sections for parallel runs. Empty otherwise.
  std::string analyze_text;
  /// EXPLAIN ANALYZE only: the same report as a JSON document.
  std::string analyze_json;
  /// EXPLAIN ANALYZE only: the raw profile behind the reports.
  std::shared_ptr<QueryProfile> profile;

  std::string ToString() const;
};

/// One statement parsed, bound and optimized once (SqlEngine::Prepare).
/// Immutable, so any number of threads may Run it at once.
struct PreparedStatement {
  /// The final plan, aggregate included; shared so an EXPLAIN ANALYZE
  /// profile can keep it alive past the run.
  std::shared_ptr<const PlanNode> plan;
  /// Plan output positions of the result columns, and their schema.
  std::vector<size_t> projection;
  Schema schema;
  double seqcost = 0.0;
  double parcost = 0.0;
  std::string plan_text;
  /// Inline prefixes: EXPLAIN runs nothing, EXPLAIN ANALYZE profiles.
  bool explain = false;
  bool analyze = false;
  /// Admission estimate for the serving layer: the optimizer's plan,
  /// before the aggregate is wrapped on, as one task — sequential time T,
  /// page reads D, the i/o pattern (random as soon as the plan
  /// index-scans) and working memory summed over the plan's fragments.
  TaskProfile estimate;
};

/// How SqlEngine::Run executes a prepared statement.
struct RunOptions {
  /// A cancelled or expired ctx.cancel fails the run before it starts.
  ExecContext ctx;
  /// When set, the parallel master runs the plan's fragments on slave
  /// threads with §2.4 adjustment; `ctx` replaces master->ctx.
  std::optional<MasterOptions> master;
  /// EXPLAIN ANALYZE: attach a QueryProfile and fill analyze_text /
  /// analyze_json / profile (actual-vs-estimated per operator).
  bool profile = false;
};

/// The engine.
///
/// Thread-safety: the engine holds no per-statement state. Prepare returns
/// an immutable PreparedStatement and Run builds operator trees and the
/// parallel master per call, so a PreparedStatement may run from any
/// thread, from many at once; the serving layer prepares on the submitting
/// thread and runs on its workers. This holds provided the catalog follows
/// its DDL-then-serve discipline (see storage/catalog.h): tables
/// referenced by in-flight queries must not be loaded, re-indexed or
/// re-analyzed concurrently. The catalog's name map takes its own lock, the
/// cost model is immutable, and the storage read paths (disk array, buffer
/// pool, heap file, B+tree) are shared by parallel slaves already.
class SqlEngine {
 public:
  SqlEngine(Catalog* catalog, const MachineConfig& machine,
            const CostModel* model);

  /// Parses, binds (select list included), optimizes (bushy two-phase by
  /// default) and estimates `sql`. Never executes anything.
  StatusOr<PreparedStatement> Prepare(
      const std::string& sql, TreeShape shape = TreeShape::kBushy) const;

  /// Executes a prepared statement (serial, vectorized, spilling or
  /// parallel as `options` say). A plain EXPLAIN returns its plan only.
  StatusOr<SqlResult> Run(const PreparedStatement& prepared,
                          const RunOptions& options = RunOptions()) const;

  // One-line views over Prepare and Run.
  StatusOr<SqlResult> Execute(const std::string& sql,
                              const ExecContext& ctx = ExecContext(),
                              TreeShape shape = TreeShape::kBushy);
  /// Plan, costs and schema; no rows.
  StatusOr<SqlResult> Explain(const std::string& sql,
                              TreeShape shape = TreeShape::kBushy);
  /// Profiled runs; an `EXPLAIN ANALYZE` prefix through Execute does the
  /// same. The parallel report adds per-fragment stats and the §2.4
  /// adjustment timeline.
  StatusOr<SqlResult> ExplainAnalyze(const std::string& sql,
                                     const ExecContext& ctx = ExecContext(),
                                     TreeShape shape = TreeShape::kBushy);
  StatusOr<SqlResult> ExplainAnalyzeParallel(
      const std::string& sql, const MasterOptions& options = MasterOptions(),
      TreeShape shape = TreeShape::kBushy);
  /// PreparedStatement::estimate.
  StatusOr<TaskProfile> EstimateProfile(const std::string& sql,
                                        TreeShape shape = TreeShape::kBushy);

 private:
  struct Bound {
    QuerySpec spec;
    ParsedQuery parsed;
  };

  StatusOr<Bound> Bind(const std::string& sql) const;

  // Resolves a column reference to (relation index, column index).
  StatusOr<std::pair<int, size_t>> ResolveColumn(
      const Bound& bound, const SqlColumnRef& ref) const;

  // Position of a column in an optimized plan's output, via its colmap.
  StatusOr<size_t> OutputIndex(
      const Bound& bound, const std::vector<std::pair<int, size_t>>& colmap,
      const SqlColumnRef& ref) const;

  // `view` applied to Prepare(sql, shape), or Prepare's error.
  template <typename T, typename View>
  StatusOr<T> PrepareThen(const std::string& sql, TreeShape shape,
                          View view) const;

  Catalog* const catalog_;
  MachineConfig machine_;
  const CostModel* const model_;
};

}  // namespace xprs

#endif  // XPRS_SQL_ENGINE_H_
