#include "serve/overload.h"

#include <algorithm>
#include <utility>

#include "resilience/retry.h"
#include "util/str.h"

namespace xprs {

namespace {

constexpr const char* kBreakerPrefix = "circuit open";
constexpr const char* kPoisonPrefix = "poison quarantine";

}  // namespace

// --- OverloadController -----------------------------------------------------

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kShedding:
      return "shedding";
  }
  return "unknown";
}

OverloadController::OverloadController(const Observability& obs)
    : obs_(obs), epoch_(std::chrono::steady_clock::now()) {
  if (obs_.metrics != nullptr) {
    g_state_ = obs_.metrics->gauge("overload.state");
    m_transitions_ = obs_.metrics->counter("overload.transitions");
    m_shed_ = obs_.metrics->counter("overload.shed");
    g_state_->Set(0.0);
  }
}

double OverloadController::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void OverloadController::SetMemoryProbe(std::function<double()> probe) {
  std::lock_guard<std::mutex> lock(mutex_);
  memory_probe_ = std::move(probe);
}

void OverloadController::RecordOutcome(bool failure) {
  std::lock_guard<std::mutex> lock(mutex_);
  outcomes_.push_back(failure);
  if (failure) ++window_failures_;
  while (outcomes_.size() > kWindow) {
    if (outcomes_.front()) --window_failures_;
    outcomes_.pop_front();
  }
}

HealthState OverloadController::TargetLocked(const OverloadSignals& signals,
                                             std::string* reason) const {
  double mem_frac = signals.mem_frac;
  if (memory_probe_) mem_frac = std::max(mem_frac, memory_probe_());

  // -1 (never over a threshold) until the window holds kMinSamples.
  double fault_rate = -1.0;
  if (outcomes_.size() >= kMinSamples)
    fault_rate = static_cast<double>(window_failures_) /
                 static_cast<double>(outcomes_.size());

  // Each signal against its shedding bar, then against its degraded bar.
  struct Signal {
    const char* name;
    double value, degraded, shedding;
  };
  const Signal checked[] = {
      {"fault_rate", fault_rate, kDegradedFaultRate, kSheddingFaultRate},
      {"queue", signals.queue_frac, kDegradedQueueFrac, kSheddingQueueFrac},
      {"mem", mem_frac, kDegradedMemFrac, kSheddingMemFrac}};
  for (HealthState target : {HealthState::kShedding, HealthState::kDegraded}) {
    for (const Signal& signal : checked) {
      const double bar = target == HealthState::kShedding ? signal.shedding
                                                          : signal.degraded;
      if (signal.value >= bar) {
        *reason = StrFormat("%s %.2f >= %.2f", signal.name, signal.value, bar);
        return target;
      }
    }
  }
  *reason = "signals clear";
  return HealthState::kHealthy;
}

void OverloadController::TransitionLocked(HealthState to,
                                          const std::string& reason) {
  HealthState from = state();
  if (from == to) return;
  OverloadTransition tr;
  tr.t_seconds = NowSeconds();
  tr.from = from;
  tr.to = to;
  tr.reason = reason;
  transitions_.push_back(tr);
  reached_[static_cast<int>(to)] = true;
  last_transition_seconds_ = tr.t_seconds;
  clean_evals_ = 0;
  state_.store(static_cast<int>(to), std::memory_order_release);
  if (g_state_ != nullptr) g_state_->Set(static_cast<double>(to));
  if (m_transitions_ != nullptr) m_transitions_->Increment();
  EmitResilienceEvent(obs_, StrFormat("overload.%s", HealthStateName(to)),
                      -1.0, 0,
                      {{"from", std::string(HealthStateName(from))},
                       {"to", std::string(HealthStateName(to))},
                       {"reason", reason}});
}

void OverloadController::Evaluate(const OverloadSignals& signals) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string reason;
  HealthState target = TargetLocked(signals, &reason);
  HealthState current = state();

  if (target > current) {
    // Escalation is immediate: the system is on fire, dwell times do not
    // apply.
    TransitionLocked(target, reason);
    return;
  }
  if (current == HealthState::kHealthy) return;

  // Monotone recovery: step down one level at a time, only after the
  // signals stayed below the *current* state's entry bar for
  // kRecoveryCleanEvals consecutive evaluations and the state held for
  // kMinDwellSeconds.
  if (target < current) {
    ++clean_evals_;
    const double held = NowSeconds() - last_transition_seconds_;
    if (clean_evals_ >= kRecoveryCleanEvals && held >= kMinDwellSeconds) {
      HealthState next = current == HealthState::kShedding
                             ? HealthState::kDegraded
                             : HealthState::kHealthy;
      TransitionLocked(next, StrFormat("recovered after %d clean evals (%s)",
                                       clean_evals_, reason.c_str()));
    }
  } else {
    clean_evals_ = 0;
  }
}

Status OverloadController::AdmissionCheck(int priority) {
  if (state() != HealthState::kShedding || priority >= kShedPriorityFloor)
    return Status::OK();
  sheds_.fetch_add(1, std::memory_order_relaxed);
  if (m_shed_ != nullptr) m_shed_->Increment();
  return Status::ResourceExhausted(
      StrFormat("%s: state=%s, priority %d below admission floor %d",
                kShedPrefix, HealthStateName(HealthState::kShedding),
                priority, kShedPriorityFloor));
}

const char* OverloadController::kShedPrefix = "admission shed (overload)";

bool OverloadController::IsOverloadShed(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted &&
         status.message().rfind(kShedPrefix, 0) == 0;
}

void OverloadController::CountShed() {
  sheds_.fetch_add(1, std::memory_order_relaxed);
  if (m_shed_ != nullptr) m_shed_->Increment();
}

double OverloadController::budget_scale() const {
  switch (state()) {
    case HealthState::kDegraded:
      return kDegradedBudgetScale;
    case HealthState::kShedding:
      return kSheddingBudgetScale;
    default:
      return 1.0;
  }
}

double OverloadController::queue_scale() const {
  return state() == HealthState::kShedding ? kSheddingQueueScale : 1.0;
}

std::vector<OverloadTransition> OverloadController::transitions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return transitions_;
}

bool OverloadController::reached(HealthState state) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reached_[static_cast<int>(state)];
}

// --- CircuitBreaker ---------------------------------------------------------

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(std::string domain, const Observability& obs)
    : domain_(std::move(domain)),
      obs_(obs),
      epoch_(std::chrono::steady_clock::now()) {
  if (obs_.metrics != nullptr) {
    m_fast_fail_ = obs_.metrics->counter(
        StrFormat("overload.breaker.%s.fast_fail", domain_.c_str()));
    m_opened_ = obs_.metrics->counter(
        StrFormat("overload.breaker.%s.opened", domain_.c_str()));
  }
}

double CircuitBreaker::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void CircuitBreaker::TransitionLocked(BreakerState to) {
  if (state_ == to) return;
  BreakerState from = state_;
  state_ = to;
  if (to == BreakerState::kOpen) {
    opened_at_seconds_ = NowSeconds();
    ++times_opened_;
    if (m_opened_ != nullptr) m_opened_->Increment();
  }
  EmitResilienceEvent(obs_,
                      StrFormat("overload.breaker.%s", domain_.c_str()), -1.0,
                      0,
                      {{"from", std::string(BreakerStateName(from))},
                       {"to", std::string(BreakerStateName(to))}});
}

Status CircuitBreaker::Allow() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == BreakerState::kOpen) {
    if (NowSeconds() - opened_at_seconds_ >= kOpenSeconds) {
      TransitionLocked(BreakerState::kHalfOpen);
    } else {
      ++fast_fails_;
      if (m_fast_fail_ != nullptr) m_fast_fail_->Increment();
      return Status::ResourceExhausted(StrFormat(
          "%s: %s breaker tripped after %d consecutive failures",
          kBreakerPrefix, domain_.c_str(), kFailureThreshold));
    }
  }
  return Status::OK();
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mutex_);
  consecutive_failures_ = 0;
  if (state_ == BreakerState::kHalfOpen)
    TransitionLocked(BreakerState::kClosed);
}

bool CircuitBreaker::RecordFailure() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++consecutive_failures_;
  // A failed half-open probe means the domain is still sick: back to a
  // full cooldown.
  if (state_ == BreakerState::kHalfOpen ||
      (state_ == BreakerState::kClosed &&
       consecutive_failures_ >= kFailureThreshold)) {
    TransitionLocked(BreakerState::kOpen);
    return true;
  }
  return false;
}

bool CircuitBreaker::IsBreakerOpen(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted &&
         status.message().rfind(kBreakerPrefix, 0) == 0;
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

uint64_t CircuitBreaker::fast_fails() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fast_fails_;
}

uint64_t CircuitBreaker::times_opened() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return times_opened_;
}

// --- PoisonLog --------------------------------------------------------------

std::string PoisonEntry::ToJson() const {
  return StrFormat(
      "{\"query\":\"%s\",\"session_id\":%lld,\"failures\":%d,"
      "\"attempts\":%d,\"last_status\":\"%s\",\"grant\":{"
      "\"parallelism\":%d,\"memory_pages\":%.9g,\"io_rate\":%.9g,"
      "\"degraded\":%s},\"seed\":%llu,\"quarantined\":%s,\"rejected\":%llu}",
      JsonEscape(query).c_str(), static_cast<long long>(session_id), failures,
      attempts, JsonEscape(last_status).c_str(), last_grant.parallelism,
      last_grant.memory_pages, last_grant.io_rate,
      last_grant.degraded ? "true" : "false",
      static_cast<unsigned long long>(seed), quarantined ? "true" : "false",
      static_cast<unsigned long long>(rejected));
}

PoisonLog::PoisonLog(const Observability& obs) : obs_(obs) {
  if (obs_.metrics != nullptr) {
    m_quarantined_ = obs_.metrics->counter("overload.poison.quarantined");
    m_rejected_ = obs_.metrics->counter("overload.poison.rejected");
  }
}

bool PoisonLog::RecordFailure(const std::string& sql, int64_t session_id,
                              const GrantSnapshot& grant, const Status& status,
                              int attempts, uint64_t seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  PoisonEntry* entry = nullptr;
  for (PoisonEntry& e : entries_)
    if (e.query == sql) {
      entry = &e;
      break;
    }
  if (entry == nullptr) {
    entries_.emplace_back();
    entry = &entries_.back();
    entry->query = sql;
    size_.store(entries_.size(), std::memory_order_relaxed);
  }
  entry->session_id = session_id;
  ++entry->failures;
  entry->attempts += attempts;
  entry->last_status = status.ToString();
  entry->last_grant = grant;
  if (seed != 0) entry->seed = seed;
  if (!entry->quarantined && entry->failures >= kQuarantineFailures) {
    entry->quarantined = true;
    if (m_quarantined_ != nullptr) m_quarantined_->Increment();
    EmitResilienceEvent(obs_, "overload.poison_quarantine", -1.0, session_id,
                        {{"query", sql},
                         {"failures", static_cast<int64_t>(entry->failures)}});
    return true;
  }
  return false;
}

void PoisonLog::RecordSuccess(const std::string& sql) {
  if (size_.load(std::memory_order_relaxed) == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->query != sql) continue;
    if (!it->quarantined) {
      entries_.erase(it);
      size_.store(entries_.size(), std::memory_order_relaxed);
    }
    return;
  }
}

void PoisonLog::ClearStreaks() {
  if (size_.load(std::memory_order_relaxed) == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [](const PoisonEntry& e) {
                                  return !e.quarantined;
                                }),
                 entries_.end());
  size_.store(entries_.size(), std::memory_order_relaxed);
}

bool PoisonLog::IsQuarantined(const std::string& sql) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const PoisonEntry& e : entries_)
    if (e.quarantined && e.query == sql) return true;
  return false;
}

Status PoisonLog::RejectIfQuarantined(const std::string& sql) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (PoisonEntry& e : entries_) {
    if (!e.quarantined || e.query != sql) continue;
    ++e.rejected;
    if (m_rejected_ != nullptr) m_rejected_->Increment();
    return Status::FailedPrecondition(
        StrFormat("%s: statement failed %d times in a row and is "
                  "quarantined (last: %s)",
                  kPoisonPrefix, e.failures, e.last_status.c_str()));
  }
  return Status::OK();
}

bool PoisonLog::IsPoisonReject(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition &&
         status.message().rfind(kPoisonPrefix, 0) == 0;
}

std::vector<PoisonEntry> PoisonLog::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_;
}

size_t PoisonLog::quarantined_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const PoisonEntry& e : entries_)
    if (e.quarantined) ++n;
  return n;
}

std::string PoisonLog::DumpJsonLines() const {
  std::vector<PoisonEntry> snapshot = entries();
  std::string out;
  for (const PoisonEntry& entry : snapshot) {
    out += entry.ToJson();
    out += "\n";
  }
  return out;
}

}  // namespace xprs
