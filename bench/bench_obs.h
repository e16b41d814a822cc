// Shared --trace-out / --metrics-out / --profile-out plumbing for the
// bench binaries.
//
// Usage:
//   int main(int argc, char** argv) {
//     xprs::BenchObs bench_obs(&argc, argv);   // strips the flags below
//     ... attach bench_obs.obs() to one representative run ...
//     bench_obs.RegisterProfile(result.profile);  // EXPLAIN ANALYZE runs
//     bench_obs.Finish();   // writes trace/metrics/profile files
//   }
//
// Flags (all stripped from argv so benches that parse their own flags —
// and google-benchmark's Initialize — never see them):
//   --trace-out=<file>    Chrome trace JSON of the recorded events
//   --metrics-out=<file>  MetricsRegistry JSON snapshot
//   --profile-out=<file>  QueryProfile JSON of the registered profile
//
// Every bench prints one "metrics: {...}" JSON line whether or not any
// file was requested, so the counters are always scrapeable from output.

#ifndef XPRS_BENCH_BENCH_OBS_H_
#define XPRS_BENCH_BENCH_OBS_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "exec/profile.h"
#include "obs/obs.h"

namespace xprs {

// --- shared flag parsing ---------------------------------------------------
//
// Every bench main parses `--name=value` arguments; these helpers are the
// one implementation (BenchObs uses the string one for its own flags).
// Each returns true iff `arg` starts with `flag` (which must include the
// trailing '='), writing the parsed value through `out` on a match.

inline bool BenchFlagString(const char* arg, const char* flag,
                            std::string* out) {
  const size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) != 0) return false;
  *out = arg + len;
  return true;
}

inline bool BenchFlagInt(const char* arg, const char* flag, int* out) {
  std::string value;
  if (!BenchFlagString(arg, flag, &value)) return false;
  *out = std::atoi(value.c_str());
  return true;
}

inline bool BenchFlagDouble(const char* arg, const char* flag, double* out) {
  std::string value;
  if (!BenchFlagString(arg, flag, &value)) return false;
  *out = std::atof(value.c_str());
  return true;
}

class BenchObs {
 public:
  BenchObs(int* argc, char** argv) {
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      if (BenchFlagString(argv[i], "--trace-out=", &trace_path_) ||
          BenchFlagString(argv[i], "--metrics-out=", &metrics_path_) ||
          BenchFlagString(argv[i], "--profile-out=", &profile_path_)) {
        continue;
      }
      argv[out++] = argv[i];
    }
    *argc = out;
  }

  /// The bundle to hand to the components of the traced run.
  Observability obs() { return {&recorder_, &metrics_}; }
  MetricsRegistry* metrics() { return &metrics_; }
  TraceSink* trace() { return &recorder_; }
  /// The recorder itself, for benches that post-process the events they
  /// emitted (bench_macro's per-query span breakdown).
  MemoryTraceRecorder* recorder() { return &recorder_; }
  bool tracing_requested() const { return !trace_path_.empty(); }
  bool profile_requested() const { return !profile_path_.empty(); }

  /// Registers the profile --profile-out will dump (the last registration
  /// wins; benches typically register their headline query's profile).
  void RegisterProfile(std::shared_ptr<const QueryProfile> profile) {
    profile_ = std::move(profile);
  }

  /// Writes the requested output files and prints the metrics snapshot as
  /// one "metrics: {...}" line.
  void Finish() {
    if (!trace_path_.empty()) {
      Status st = WriteChromeTrace(trace_path_, recorder_.snapshot());
      if (st.ok()) {
        std::printf("trace: wrote %s (%zu events, %zu dropped)\n",
                    trace_path_.c_str(), recorder_.size(),
                    recorder_.dropped());
      } else {
        std::fprintf(stderr, "trace: %s\n", st.ToString().c_str());
      }
    }
    if (!metrics_path_.empty()) {
      std::ofstream file(metrics_path_, std::ios::trunc);
      if (file.is_open()) {
        file << metrics_.DumpJson() << "\n";
        std::printf("metrics: wrote %s\n", metrics_path_.c_str());
      } else {
        std::fprintf(stderr, "metrics: cannot open %s\n",
                     metrics_path_.c_str());
      }
    }
    if (!profile_path_.empty()) {
      if (profile_ == nullptr) {
        std::fprintf(stderr,
                     "profile: --profile-out given but no profile was "
                     "registered\n");
      } else {
        Status st = profile_->WriteJson(profile_path_);
        if (st.ok()) {
          std::printf("profile: wrote %s\n", profile_path_.c_str());
        } else {
          std::fprintf(stderr, "profile: %s\n", st.ToString().c_str());
        }
      }
    }
    std::printf("metrics: %s\n", metrics_.DumpJson().c_str());
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::string profile_path_;
  MemoryTraceRecorder recorder_;
  MetricsRegistry metrics_;
  std::shared_ptr<const QueryProfile> profile_;
};

}  // namespace xprs

#endif  // XPRS_BENCH_BENCH_OBS_H_
