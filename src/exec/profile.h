// Per-query profiler: the EXPLAIN ANALYZE substrate.
//
// A QueryProfile mirrors one plan tree with an OperatorStats node per plan
// node. Operators publish their actuals (tuples out, pages read/written,
// spill bytes, predicate-eval time) into the shared stats through a single
// nullable pointer — profiling off costs one pointer test per hook — while
// a timing decorator (inserted by the plan builders only when a profile is
// attached) measures inclusive Open/Next/Close wall time per node. All
// actual counters are atomics because every slave backend of a parallel
// fragment runs its own pipeline copy against the *same* per-plan-node
// stats.
//
// On top of the operator tree the profile records the parallel run:
// per-fragment wall time / degree / partition bounds (from
// ParallelFragmentRun), the master's start+adjustment timeline (the §2.4
// decisions that produce the INTER-WITH-ADJ gain), and CPU/disk utilization
// samples from the fluid simulator's estimated schedule. Rendering:
// annotated plan text (EXPLAIN ANALYZE), a JSON document, Chrome 'C'
// counter events for the utilization timeline, and a MetricsRegistry
// publication whose totals reconcile with the per-operator counters.

#ifndef XPRS_EXEC_PROFILE_H_
#define XPRS_EXEC_PROFILE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/plan.h"
#include "obs/obs.h"

namespace xprs {

class Operator;

/// Shared per-plan-node instrumentation. Actual counters are relaxed
/// atomics: every slave pipeline of a parallel fragment updates the same
/// instance. Estimates are written once, before execution starts.
struct OperatorStats {
  // --- identity (fixed at QueryProfile construction) ---
  int id = 0;               ///< preorder index within the plan
  int parent = -1;          ///< preorder index of the parent (-1 = root)
  int depth = 0;            ///< tree depth (root = 0)
  PlanKind kind = PlanKind::kSeqScan;
  std::string label;        ///< e.g. "HashJoin(l.col0 = r.col1)"

  // --- optimizer estimates (filled via SetEstimate, cumulative subtree) ---
  double est_rows = 0.0;
  double est_ios = 0.0;
  double est_seq_time = 0.0;
  bool has_estimate = false;

  // --- actuals ---
  std::atomic<uint64_t> opens{0};
  std::atomic<uint64_t> tuples_out{0};
  std::atomic<uint64_t> pages_read{0};     ///< data pages fetched
  std::atomic<uint64_t> pages_written{0};  ///< spill pages written
  std::atomic<uint64_t> spill_bytes{0};    ///< bytes spilled to temp files
  std::atomic<uint64_t> spill_runs{0};     ///< sort runs / grace partitions
  std::atomic<uint64_t> build_rows{0};     ///< hash-build side rows
  std::atomic<uint64_t> evals{0};          ///< predicate evaluations
  std::atomic<uint64_t> eval_ns{0};        ///< time inside Predicate::Eval
  std::atomic<uint64_t> open_ns{0};        ///< inclusive Open wall time
  std::atomic<uint64_t> next_ns{0};        ///< inclusive Next wall time
  std::atomic<uint64_t> close_ns{0};       ///< inclusive Close wall time

  /// Inclusive wall seconds (open + next + close).
  double inclusive_seconds() const {
    return 1e-9 * static_cast<double>(open_ns.load(std::memory_order_relaxed) +
                                      next_ns.load(std::memory_order_relaxed) +
                                      close_ns.load(std::memory_order_relaxed));
  }
};

/// One parallel fragment's runtime summary (recorded by
/// ParallelFragmentRun when it finishes).
struct FragmentStats {
  int frag_id = -1;
  std::string root_label;      ///< label of the fragment's root operator
  std::string partition_kind;  ///< "pages", "range" or "batches"
  uint64_t granules = 0;       ///< partition bound: total driving granules
  int initial_parallelism = 0;
  int final_parallelism = 0;
  int adjustments = 0;         ///< §2.4 adjustments applied to this run
  int slaves_spawned = 0;      ///< distinct slave threads over the run
  double wall_seconds = 0.0;   ///< Start() to last-slave-finished
  uint64_t tuples_out = 0;     ///< merged output cardinality
};

/// One entry of the master's parallelism timeline.
struct AdjustmentEvent {
  enum class Kind { kStart, kAdjust, kFinish };
  Kind kind = Kind::kStart;
  double time_seconds = 0.0;  ///< seconds since the master run started
  int frag_id = -1;
  int64_t task = -1;
  double parallelism = 0.0;
  std::string ToString() const;
};

/// One CPU/disk utilization sample (from the fluid simulator's estimated
/// schedule of the query's fragments).
struct UtilSample {
  double time = 0.0;
  double duration = 0.0;
  double cpus_busy = 0.0;
  double io_rate = 0.0;
  double effective_bw = 0.0;
  int tasks_running = 0;
};

/// Rendering knobs. Golden tests disable wall-clock fields so the output
/// is byte-stable across runs.
struct ProfileRenderOptions {
  bool include_times = true;
  /// Include fragment / timeline / utilization sections (meaningful for
  /// parallel runs).
  bool include_parallel = true;
};

/// The per-query profile. Thread-safe: operator stats are atomics;
/// fragment/timeline/utilization recording takes a short mutex (per
/// fragment event, not per tuple).
class QueryProfile {
 public:
  /// Builds the mirror tree for `plan` (which must outlive the profile).
  explicit QueryProfile(const PlanNode* plan);

  const PlanNode* plan() const { return plan_; }

  /// Shares ownership of the profiled plan so the profile (and its node
  /// labels / StatsFor keys) can outlive the query that built it. `plan`
  /// must be the tree this profile was constructed over.
  void AdoptPlan(std::shared_ptr<const PlanNode> plan);

  /// Stats of a plan node; nullptr when `node` is not part of this
  /// profile's plan (a foreign plan sharing the ExecContext).
  OperatorStats* StatsFor(const PlanNode* node);
  const OperatorStats* StatsFor(const PlanNode* node) const;

  /// True when `node` belongs to the profiled plan.
  bool Covers(const PlanNode* node) const;

  /// Preorder stats list (stable pointers for the profile's lifetime).
  const std::vector<std::unique_ptr<OperatorStats>>& operators() const {
    return operators_;
  }

  /// Fills a node's optimizer estimate (call before execution).
  void SetEstimate(const PlanNode* node, double rows, double ios,
                   double seq_time);

  // --- parallel-run recording (thread-safe) ---
  void RecordFragment(const FragmentStats& stats);
  void RecordEvent(const AdjustmentEvent& event);
  void AddUtilSample(const UtilSample& sample);

  std::vector<FragmentStats> fragments() const;
  std::vector<AdjustmentEvent> timeline() const;
  std::vector<UtilSample> utilization() const;

  // --- totals (sum over operators) ---
  uint64_t TotalTuplesOut() const;
  uint64_t TotalPagesRead() const;
  uint64_t TotalPagesWritten() const;
  uint64_t TotalSpillBytes() const;
  uint64_t TotalEvals() const;

  /// Annotated plan tree plus (optionally) fragment / timeline /
  /// utilization sections — the EXPLAIN ANALYZE report body.
  std::string ToText(const ProfileRenderOptions& options = {}) const;

  /// Complete JSON document: {"operators":[...],"fragments":[...],
  /// "timeline":[...],"utilization":[...],"totals":{...}}.
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  Status WriteJson(const std::string& path) const;

  /// Adds the profile's totals to `profile.*` counters so an attached
  /// MetricsRegistry reconciles with the per-operator stats
  /// (profile.tuples_out == TotalTuplesOut(), ...).
  void PublishMetrics(MetricsRegistry* metrics) const;

  /// Emits the utilization samples as Chrome 'C' counter events
  /// ("profile cpus busy", "profile io rate") plus one 'X' span per
  /// fragment, so a trace viewer shows the query's timeline next to the
  /// scheduler's own events.
  void EmitTrace(TraceSink* sink) const;

 private:
  void Index(const PlanNode* node, int parent, int depth);

  const PlanNode* plan_;
  std::shared_ptr<const PlanNode> owned_plan_;  // set by AdoptPlan
  std::vector<std::unique_ptr<OperatorStats>> operators_;  // preorder
  std::map<const PlanNode*, OperatorStats*> by_node_;

  mutable std::mutex mutex_;
  std::vector<FragmentStats> fragments_;
  std::vector<AdjustmentEvent> timeline_;
  std::vector<UtilSample> utilization_;
};

/// Human-readable operator label used by profiles ("SeqScan(r1, ...)").
std::string OperatorLabel(const PlanNode& node);

/// When `profile` is attached and covers `node`: binds the operator's
/// internal hooks to the node's stats and wraps it in the timing decorator.
/// Otherwise returns `op` untouched (zero overhead). The builders call this
/// on every operator they construct.
std::unique_ptr<Operator> MaybeProfile(std::unique_ptr<Operator> op,
                                       const PlanNode* node,
                                       QueryProfile* profile);

/// Monotonic nanosecond clock used by the instrumentation hooks.
inline uint64_t ProfileNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace xprs

#endif  // XPRS_EXEC_PROFILE_H_
