// Regenerates Figures 5 and 6 (§2.4) behaviourally: runs the real
// shared-memory adjustment protocols (page partitioning with the maxpage
// rendezvous; range partitioning with interval redistribution) on live
// slave threads, reporting protocol latency, work conservation, and the
// cost of the rendezvous as parallelism changes. Also sweeps the fluid
// simulator's adjustment latency to show how protocol cost eats into the
// Figure 7 gain.

#include <chrono>
#include <cstdio>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "bench_obs.h"
#include "exec/page_partition.h"
#include "exec/range_partition.h"
#include "sched/scheduler.h"
#include "sim/fluid_sim.h"
#include "util/stats.h"
#include "util/str.h"
#include "workload/tasks.h"

namespace xprs {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Runs a page scan with `initial` slaves, fires one adjustment to
// `target`, reports the rendezvous latency and verifies conservation.
void PageProtocolRow(TextTable* table, uint32_t pages, int initial,
                     int target) {
  AdjustablePageScan scan(pages, initial, 12);
  std::mutex mu;
  std::set<uint32_t> taken;
  std::vector<std::thread> threads;
  std::mutex tm;

  std::function<void(int)> spawn = [&](int slot) {
    std::lock_guard<std::mutex> lock(tm);
    threads.emplace_back([&, slot] {
      for (;;) {
        auto p = scan.NextPage(slot);
        if (!p.has_value()) return;
        {
          std::lock_guard<std::mutex> l2(mu);
          taken.insert(*p);
        }
        // Simulated per-page work so the rendezvous has something to wait
        // for (the paper's slaves pause at page boundaries).
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    });
  };
  for (int i = 0; i < initial; ++i) spawn(i);

  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  double t0 = NowSeconds();
  auto result = scan.Adjust(target);
  double latency_ms = (NowSeconds() - t0) * 1e3;
  for (int slot : result.slots_to_start) spawn(slot);

  while (!scan.Done())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  {
    std::lock_guard<std::mutex> lock(tm);
    for (auto& t : threads) t.join();
  }

  table->AddRow({StrFormat("%d -> %d", initial, target),
                 StrFormat("%u", pages), StrFormat("%.2f", latency_ms),
                 StrFormat("%u", result.maxpage),
                 taken.size() == pages ? "yes" : "NO (BUG)"});
}

void RangeProtocolRow(TextTable* table, const BTreeIndex& index, int entries,
                      int initial, int target) {
  AdjustableRangeScan scan(&index, {0, 99999}, initial, 12, 128);
  std::mutex mu;
  size_t delivered = 0;
  std::vector<std::thread> threads;
  std::mutex tm;

  std::function<void(int)> spawn = [&](int slot) {
    std::lock_guard<std::mutex> lock(tm);
    threads.emplace_back([&, slot] {
      for (;;) {
        auto chunk = scan.NextChunk(slot);
        if (!chunk.has_value()) return;
        size_t n = index.CountRange(chunk->lo, chunk->hi);
        {
          std::lock_guard<std::mutex> l2(mu);
          delivered += n;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(400));
      }
    });
  };
  for (int i = 0; i < initial; ++i) spawn(i);

  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  double t0 = NowSeconds();
  auto result = scan.Adjust(target);
  double latency_ms = (NowSeconds() - t0) * 1e3;
  for (int slot : result.slots_to_start) spawn(slot);

  while (!scan.Done())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  {
    std::lock_guard<std::mutex> lock(tm);
    for (auto& t : threads) t.join();
  }

  table->AddRow({StrFormat("%d -> %d", initial, target),
                 StrFormat("%d", entries), StrFormat("%.2f", latency_ms),
                 delivered == static_cast<size_t>(entries) ? "yes"
                                                           : "NO (BUG)"});
}

void LatencySweep() {
  std::printf(
      "Adjustment-latency sweep (fluid sim): INTER-WITH-ADJ gain on the\n"
      "Extreme workload vs the protocol latency modeled per adjustment:\n");
  MachineConfig machine = MachineConfig::PaperConfig();
  TextTable table({"adjust latency (s)", "INTRA-ONLY (s)", "INTER-W/-ADJ (s)",
                   "gain", "adjustments"});
  for (double latency : {0.0, 0.05, 0.2, 0.5, 1.0, 2.0}) {
    RunningStat intra, with;
    size_t adjustments = 0;
    for (int trial = 0; trial < 20; ++trial) {
      Rng rng(TestSeed(500 + trial));
      WorkloadOptions wo;
      auto tasks = MakeWorkload(WorkloadKind::kExtremeMix, wo, &rng);

      SimOptions so;
      so.adjust_latency = latency;
      {
        SchedulerOptions sched_opts;
        sched_opts.policy = SchedPolicy::kIntraOnly;
        AdaptiveScheduler sched(machine, sched_opts);
        FluidSimulator sim(machine, so);
        intra.Add(sim.Run(&sched, tasks).elapsed);
      }
      {
        SchedulerOptions sched_opts;
        sched_opts.policy = SchedPolicy::kInterWithAdj;
        AdaptiveScheduler sched(machine, sched_opts);
        FluidSimulator sim(machine, so);
        SimResult r = sim.Run(&sched, tasks);
        with.Add(r.elapsed);
        adjustments += r.num_adjustments;
      }
    }
    table.AddRow({StrFormat("%.2f", latency),
                  StrFormat("%.1f", intra.mean()),
                  StrFormat("%.1f", with.mean()),
                  StrFormat("%+.1f%%",
                            (intra.mean() - with.mean()) / intra.mean() * 100),
                  StrFormat("%.1f", adjustments / 20.0)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

void Run(BenchObs* bench_obs) {
  std::printf("Figures 5 & 6: dynamic parallelism adjustment protocols\n\n");

  std::printf("Figure 5 — page partitioning (maxpage rendezvous), real "
              "threads:\n");
  TextTable page({"adjustment", "pages", "rendezvous (ms)", "maxpage",
                  "every page exactly once"});
  PageProtocolRow(&page, 600, 2, 6);
  PageProtocolRow(&page, 600, 6, 2);
  PageProtocolRow(&page, 600, 4, 8);
  PageProtocolRow(&page, 600, 8, 1);
  std::printf("%s\n", page.ToString().c_str());

  std::printf("Figure 6 — range partitioning (interval redistribution), "
              "real threads:\n");
  BTreeIndex index;
  Rng rng(TestSeed(3));
  constexpr int kEntries = 6000;
  for (int i = 0; i < kEntries; ++i)
    index.Insert(static_cast<int32_t>(rng.NextInt(0, 99999)),
                 TupleId{static_cast<uint32_t>(i), 0});
  TextTable range({"adjustment", "entries", "rendezvous (ms)",
                   "every entry exactly once"});
  RangeProtocolRow(&range, index, kEntries, 2, 6);
  RangeProtocolRow(&range, index, kEntries, 6, 2);
  RangeProtocolRow(&range, index, kEntries, 4, 8);
  std::printf("%s\n", range.ToString().c_str());

  LatencySweep();
  std::printf(
      "reading: the shared-memory rendezvous costs ~a page-service time\n"
      "(the paper's low-communication-delay argument); the sweep shows the\n"
      "Figure 7 gain is robust until latency approaches task lengths.\n");

  // Representative traced run with the paper's default adjustment latency:
  // the adjust instants in the trace line up with the rendezvous spans.
  {
    Rng rng(TestSeed(500));
    WorkloadOptions wo;
    auto tasks = MakeWorkload(WorkloadKind::kExtremeMix, wo, &rng);
    MachineConfig machine = MachineConfig::PaperConfig();
    SchedulerOptions sched_opts;
    sched_opts.policy = SchedPolicy::kInterWithAdj;
    AdaptiveScheduler sched(machine, sched_opts);
    sched.SetObservability(bench_obs->obs());
    FluidSimulator sim(machine, SimOptions());
    sim.SetObservability(bench_obs->obs());
    sim.Run(&sched, tasks);
  }
}

}  // namespace
}  // namespace xprs

int main(int argc, char** argv) {
  xprs::BenchObs bench_obs(&argc, argv);
  xprs::Run(&bench_obs);
  bench_obs.Finish();
  return 0;
}
