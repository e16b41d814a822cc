#include "sql/engine.h"

#include <algorithm>
#include <variant>

#include "util/check.h"
#include "util/str.h"

namespace xprs {

namespace {

// Writes every node's cumulative optimizer estimate into the profile so
// EXPLAIN ANALYZE can print actual-vs-estimated side by side.
void AnnotateEstimates(const CostModel& model, const PlanNode& node,
                       QueryProfile* profile) {
  PlanEstimate est = model.Estimate(node);
  profile->SetEstimate(&node, est.rows, est.ios, est.seq_time);
  if (node.left) AnnotateEstimates(model, *node.left, profile);
  if (node.right) AnnotateEstimates(model, *node.right, profile);
}

// Estimated CPU/disk utilization timeline: run the adaptive scheduler over
// the plan's fragment profiles in the fluid resource model — the same
// machinery parcost uses — and sample its utilization trace.
void AnnotateUtilization(const MachineConfig& machine, const CostModel& model,
                         const PlanNode& plan, const SchedulerOptions& sched,
                         QueryProfile* profile) {
  FragmentGraph graph = FragmentGraph::Decompose(plan);
  std::vector<TaskProfile> tasks =
      model.FragmentProfiles(graph, /*query_id=*/0, /*id_base=*/0);
  FluidSimulator sim(machine);
  AdaptiveScheduler scheduler(machine, sched);
  SimResult result = sim.Run(&scheduler, tasks);
  if (!result.ok()) return;  // estimate only; profile stays usable
  for (const SimTraceSample& s : sim.trace()) {
    UtilSample sample;
    sample.time = s.time;
    sample.duration = s.duration;
    sample.cpus_busy = s.cpus_busy;
    sample.io_rate = s.io_rate;
    sample.effective_bw = s.effective_bw;
    sample.tasks_running = s.tasks_running;
    profile->AddUtilSample(sample);
  }
}

bool HasIndexScan(const PlanNode& node) {
  return node.kind == PlanKind::kIndexScan ||
         (node.left != nullptr && HasIndexScan(*node.left)) ||
         (node.right != nullptr && HasIndexScan(*node.right));
}

// The whole plan viewed as one task, for admission control.
TaskProfile AdmissionEstimate(const CostModel& model, const PlanNode& plan,
                              const std::string& sql) {
  PlanEstimate est = model.Estimate(plan);
  TaskProfile profile;
  profile.name = sql.substr(0, 40);
  // Degenerate estimates (empty relations) still need a positive T so the
  // scheduler's io-rate classification stays defined.
  profile.seq_time = std::max(est.seq_time, 1e-6);
  profile.total_ios = est.ios;

  // The whole plan is random-io as soon as any leaf index-scans: one
  // pointer-chasing stream drags the aggregate bandwidth to the random
  // ceiling (§2.3), which is the conservative admission assumption.
  profile.pattern = HasIndexScan(plan) ? IoPattern::kRandom
                                       : IoPattern::kSequential;

  // Working memory: sum over fragments is the safe bound for a query whose
  // fragments may overlap (pipelined builds feeding a probing consumer).
  FragmentGraph graph = FragmentGraph::Decompose(plan);
  for (int id : graph.TopologicalOrder())
    profile.memory_pages += model.FragmentMemoryPages(graph,
                                                      graph.fragment(id));
  return profile;
}

// InvalidArgument unless the column `ref` resolved to (relation, column)
// has type `want`. Ranges, joins, groups and aggregates run on int4
// columns only; a comparison runs on its constant's type.
Status RequireType(const QuerySpec& spec, std::pair<int, size_t> rel_col,
                   const SqlColumnRef& ref, TypeId want, const char* role) {
  const TypeId type =
      spec.relations[rel_col.first].table->schema().column(rel_col.second)
          .type;
  if (type == want) return Status::OK();
  return Status::InvalidArgument(
      StrFormat("%s column '%s' is %s, not %s", role, ref.ToString().c_str(),
                TypeName(type), TypeName(want)));
}

// A statement's plan and costs, without rows: EXPLAIN's result.
SqlResult PlanResult(const PreparedStatement& prepared) {
  SqlResult result;
  result.schema = prepared.schema;
  result.seqcost = prepared.seqcost;
  result.parcost = prepared.parcost;
  result.plan_text = prepared.plan_text;
  return result;
}

}  // namespace

std::string SqlResult::ToString() const {
  std::string out = schema.ToString() + "\n";
  for (const auto& row : rows) {
    out += row.ToString();
    out += '\n';
  }
  return out;
}

SqlEngine::SqlEngine(Catalog* catalog, const MachineConfig& machine,
                     const CostModel* model)
    : catalog_(catalog), machine_(machine), model_(model) {
  XPRS_CHECK(catalog != nullptr);
  XPRS_CHECK(model != nullptr);
}

StatusOr<std::pair<int, size_t>> SqlEngine::ResolveColumn(
    const Bound& bound, const SqlColumnRef& ref) const {
  int found_rel = -1;
  size_t found_col = 0;
  for (size_t i = 0; i < bound.parsed.from.size(); ++i) {
    const SqlTableRef& t = bound.parsed.from[i];
    if (!ref.qualifier.empty() && ref.qualifier != t.alias) continue;
    const Schema& schema = bound.spec.relations[i].table->schema();
    auto col = schema.ColumnIndex(ref.column);
    if (!col.ok()) {
      if (!ref.qualifier.empty())
        return Status::InvalidArgument(
            StrFormat("no column '%s' in %s", ref.column.c_str(),
                      t.alias.c_str()));
      continue;
    }
    if (found_rel >= 0)
      return Status::InvalidArgument("ambiguous column '" + ref.column + "'");
    found_rel = static_cast<int>(i);
    found_col = col.value();
    if (!ref.qualifier.empty()) break;
  }
  if (found_rel < 0)
    return Status::InvalidArgument("unknown column '" + ref.ToString() + "'");
  return std::make_pair(found_rel, found_col);
}

StatusOr<size_t> SqlEngine::OutputIndex(
    const Bound& bound, const std::vector<std::pair<int, size_t>>& colmap,
    const SqlColumnRef& ref) const {
  XPRS_ASSIGN_OR_RETURN(auto rel_col, ResolveColumn(bound, ref));
  for (size_t i = 0; i < colmap.size(); ++i)
    if (colmap[i] == rel_col) return i;
  return Status::Internal("column lost during optimization");
}

StatusOr<SqlEngine::Bound> SqlEngine::Bind(const std::string& sql) const {
  XPRS_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseSql(sql));

  Bound bound;
  bound.parsed = std::move(parsed);

  // FROM: resolve tables, reject duplicate aliases.
  for (const SqlTableRef& ref : bound.parsed.from) {
    XPRS_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(ref.table));
    bound.spec.relations.push_back({table, Predicate()});
  }
  for (size_t i = 0; i < bound.parsed.from.size(); ++i)
    for (size_t j = i + 1; j < bound.parsed.from.size(); ++j)
      if (bound.parsed.from[i].alias == bound.parsed.from[j].alias)
        return Status::InvalidArgument("duplicate table alias '" +
                                       bound.parsed.from[i].alias + "'");

  // WHERE conjuncts: selections attach to their relation; joins go to the
  // equi-join graph. Operand types are checked here, so no statement text
  // reaches the executor's type CHECKs.
  for (const SqlCondition& cond : bound.parsed.where) {
    XPRS_ASSIGN_OR_RETURN(auto lhs, ResolveColumn(bound, cond.lhs));
    switch (cond.kind) {
      case SqlCondition::Kind::kCompare: {
        const TypeId constant = std::holds_alternative<int32_t>(cond.constant)
                                    ? TypeId::kInt4
                                    : TypeId::kText;
        XPRS_RETURN_IF_ERROR(
            RequireType(bound.spec, lhs, cond.lhs, constant, "compared"));
        Predicate p = Predicate::Compare(lhs.second, cond.op, cond.constant);
        Predicate& existing = bound.spec.relations[lhs.first].pred;
        existing = Predicate::And(existing, p);
        break;
      }
      case SqlCondition::Kind::kBetween: {
        XPRS_RETURN_IF_ERROR(RequireType(bound.spec, lhs, cond.lhs,
                                         TypeId::kInt4, "BETWEEN"));
        Predicate p = Predicate::Between(lhs.second, cond.lo, cond.hi);
        Predicate& existing = bound.spec.relations[lhs.first].pred;
        existing = Predicate::And(existing, p);
        break;
      }
      case SqlCondition::Kind::kJoin: {
        XPRS_ASSIGN_OR_RETURN(auto rhs, ResolveColumn(bound, cond.rhs));
        if (lhs.first == rhs.first)
          return Status::InvalidArgument(
              "self-comparison within one relation is not a join");
        XPRS_RETURN_IF_ERROR(
            RequireType(bound.spec, lhs, cond.lhs, TypeId::kInt4, "join"));
        XPRS_RETURN_IF_ERROR(
            RequireType(bound.spec, rhs, cond.rhs, TypeId::kInt4, "join"));
        bound.spec.joins.push_back(
            {lhs.first, lhs.second, rhs.first, rhs.second});
        break;
      }
    }
  }
  return bound;
}

template <typename T, typename View>
StatusOr<T> SqlEngine::PrepareThen(const std::string& sql, TreeShape shape,
                                   View view) const {
  XPRS_ASSIGN_OR_RETURN(PreparedStatement prepared, Prepare(sql, shape));
  return view(prepared);
}

StatusOr<PreparedStatement> SqlEngine::Prepare(const std::string& sql,
                                               TreeShape shape) const {
  XPRS_ASSIGN_OR_RETURN(Bound bound, Bind(sql));
  const ParsedQuery& parsed = bound.parsed;

  // Validate the select list shape.
  size_t num_aggs = 0;
  for (const auto& item : parsed.select)
    num_aggs += item.kind == SqlSelectItem::Kind::kAggregate;
  if (num_aggs > 1)
    return Status::Unimplemented("at most one aggregate per query");
  if (num_aggs == 1 && parsed.select.size() != 1)
    return Status::Unimplemented(
        "an aggregate query selects exactly the aggregate");
  if (parsed.group_by.has_value() && num_aggs == 0)
    return Status::InvalidArgument("GROUP BY requires an aggregate");
  if (num_aggs == 1) {
    const SqlColumnRef& ref = parsed.select[0].column;
    XPRS_ASSIGN_OR_RETURN(auto col, ResolveColumn(bound, ref));
    XPRS_RETURN_IF_ERROR(
        RequireType(bound.spec, col, ref, TypeId::kInt4, "aggregate"));
  }
  if (parsed.group_by.has_value()) {
    XPRS_ASSIGN_OR_RETURN(auto col, ResolveColumn(bound, *parsed.group_by));
    XPRS_RETURN_IF_ERROR(RequireType(bound.spec, col, *parsed.group_by,
                                     TypeId::kInt4, "GROUP BY"));
  }

  TwoPhaseOptimizer optimizer(machine_, model_);
  XPRS_ASSIGN_OR_RETURN(OptimizedQuery optimized,
                        optimizer.Optimize(bound.spec, shape));

  PreparedStatement prepared;
  prepared.seqcost = optimized.seqcost;
  prepared.parcost = optimized.parcost;
  prepared.explain = parsed.explain;
  prepared.analyze = parsed.analyze;
  prepared.estimate = AdmissionEstimate(*model_, *optimized.plan, sql);

  std::unique_ptr<PlanNode> plan = std::move(optimized.plan);
  const auto& colmap = optimized.colmap;
  if (num_aggs == 1) {
    // Wrap the aggregate on top; its output is the result.
    const SqlSelectItem& agg = parsed.select[0];
    XPRS_ASSIGN_OR_RETURN(size_t agg_out,
                          OutputIndex(bound, colmap, agg.column));
    int group_out = -1;
    if (parsed.group_by.has_value()) {
      XPRS_ASSIGN_OR_RETURN(size_t g_out,
                            OutputIndex(bound, colmap, *parsed.group_by));
      group_out = static_cast<int>(g_out);
    }
    plan = MakeAggregate(std::move(plan), agg.func, agg_out, group_out);
    prepared.schema = plan->output_schema;
    for (size_t i = 0; i < prepared.schema.num_columns(); ++i)
      prepared.projection.push_back(i);
  } else {
    // Projection: * expands to every column with qualified names; explicit
    // columns project through the optimizer's colmap.
    std::vector<Column> columns;
    auto project = [&](size_t index) {
      auto [rel, col] = colmap[index];
      const Column& c = bound.spec.relations[rel].table->schema().column(col);
      prepared.projection.push_back(index);
      columns.push_back({parsed.from[rel].alias + "." + c.name, c.type});
    };
    for (const auto& item : parsed.select) {
      if (item.kind == SqlSelectItem::Kind::kStar) {
        for (size_t i = 0; i < colmap.size(); ++i) project(i);
        continue;
      }
      XPRS_ASSIGN_OR_RETURN(size_t index,
                            OutputIndex(bound, colmap, item.column));
      project(index);
    }
    prepared.schema = Schema(std::move(columns));
    plan->projected_columns.assign(plan->output_schema.num_columns(), 0);
    for (size_t index : prepared.projection)
      plan->projected_columns[index] = 1;
  }
  prepared.plan_text = plan->ToString();
  prepared.plan = std::move(plan);
  return prepared;
}

StatusOr<SqlResult> SqlEngine::Run(const PreparedStatement& prepared,
                                   const RunOptions& options) const {
  // Fail fast on an already-cancelled or expired query. The token also
  // rides ctx into the executors, which poll it at every batch boundary.
  if (options.ctx.cancel != nullptr)
    XPRS_RETURN_IF_ERROR(options.ctx.cancel->Check());

  SqlResult result = PlanResult(prepared);
  const bool analyze = options.profile || prepared.analyze;
  if (prepared.explain && !analyze) return result;

  // EXPLAIN ANALYZE: build the profile over the final plan (aggregate
  // included), annotate per-node estimates and the fluid-sim utilization
  // timeline, and attach it to the execution context.
  const PlanNode& plan = *prepared.plan;
  ExecContext ctx = options.ctx;
  if (analyze) {
    result.profile = std::make_shared<QueryProfile>(&plan);
    AnnotateEstimates(*model_, plan, result.profile.get());
    AnnotateUtilization(
        machine_, *model_, plan,
        options.master ? options.master->sched : SchedulerOptions(),
        result.profile.get());
    result.profile->AdoptPlan(prepared.plan);
    ctx.profile = result.profile.get();
  }

  std::vector<Tuple> rows;
  if (options.master) {
    // Parallel path: fragments of the plan run on slave-backend threads
    // under the adaptive scheduler.
    MasterOptions master = *options.master;
    master.ctx = ctx;
    ParallelMaster backend(machine_, model_, master);
    XPRS_ASSIGN_OR_RETURN(MasterRunResult run,
                          backend.Run({{&plan, /*query_id=*/0}}));
    rows = std::move(run.query_results.at(0));
  } else {
    XPRS_ASSIGN_OR_RETURN(rows, ExecutePlanSequential(plan, ctx));
  }

  if (result.profile != nullptr) {
    result.analyze_text = result.profile->ToText();
    result.analyze_json = result.profile->ToJson();
    // Reconcile with any attached observability: publish profile.* counters
    // and the utilization timeline next to the scheduler's own events.
    if (options.master) {
      result.profile->PublishMetrics(options.master->obs.metrics);
      result.profile->EmitTrace(options.master->obs.trace);
    }
  }

  result.rows.reserve(rows.size());
  for (const Tuple& row : rows) {
    std::vector<Value> values;
    values.reserve(prepared.projection.size());
    for (size_t idx : prepared.projection) values.push_back(row.value(idx));
    result.rows.push_back(Tuple(std::move(values)));
  }
  return result;
}

StatusOr<SqlResult> SqlEngine::Execute(const std::string& sql,
                                       const ExecContext& ctx,
                                       TreeShape shape) {
  return PrepareThen<SqlResult>(sql, shape, [&](const PreparedStatement& p) {
    return Run(p, {ctx, std::nullopt, /*profile=*/false});
  });
}

StatusOr<SqlResult> SqlEngine::Explain(const std::string& sql,
                                       TreeShape shape) {
  return PrepareThen<SqlResult>(sql, shape, PlanResult);
}

StatusOr<SqlResult> SqlEngine::ExplainAnalyze(const std::string& sql,
                                              const ExecContext& ctx,
                                              TreeShape shape) {
  return PrepareThen<SqlResult>(sql, shape, [&](const PreparedStatement& p) {
    return Run(p, {ctx, std::nullopt, /*profile=*/true});
  });
}

StatusOr<SqlResult> SqlEngine::ExplainAnalyzeParallel(
    const std::string& sql, const MasterOptions& options, TreeShape shape) {
  return PrepareThen<SqlResult>(sql, shape, [&](const PreparedStatement& p) {
    return Run(p, {options.ctx, options, /*profile=*/true});
  });
}

StatusOr<TaskProfile> SqlEngine::EstimateProfile(const std::string& sql,
                                                 TreeShape shape) {
  return PrepareThen<TaskProfile>(
      sql, shape, [](const PreparedStatement& p) { return p.estimate; });
}

}  // namespace xprs
