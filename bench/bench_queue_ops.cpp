/// \file bench_queue_ops.cpp
/// Ablation **A3** — per-operation cost of the three buffer organizations
/// (§2.2, §3.2): the reason heaps are "not practical for high-speed
/// switches" while the take-over scheme is two plain FIFOs plus one
/// comparator. Microbenchmark with google-benchmark: mixed enqueue/dequeue
/// at steady-state occupancy, plus the EDF head-compare arbiter.
#include <benchmark/benchmark.h>

#include <limits>
#include <vector>

#include "proto/packet_pool.hpp"
#include "sim/simulator.hpp"
#include "switchfab/arbiter.hpp"
#include "switchfab/channel.hpp"
#include "switchfab/queue_discipline.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace dqos {
namespace {

void run_queue_mix(benchmark::State& state, QueueKind kind) {
  const auto occupancy = static_cast<std::size_t>(state.range(0));
  PacketPool pool;
  Rng rng(42);
  PacketQueue q(kind);
  std::int64_t clock = 0;
  auto fresh = [&] {
    PacketPtr p = pool.make();
    clock += 10;
    // 15% deadline regressions: the take-over path gets exercised.
    const bool regress = rng.chance(0.15);
    p->local_deadline = TimePoint::from_ps(
        regress ? clock - static_cast<std::int64_t>(rng.uniform_int(1, 200)) : clock);
    p->hdr.wire_bytes = 2048;
    return p;
  };
  for (std::size_t i = 0; i < occupancy; ++i) q.enqueue(fresh());
  for (auto _ : state) {
    q.enqueue(fresh());
    PacketPtr out = q.dequeue();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}

void BM_Fifo(benchmark::State& state) { run_queue_mix(state, QueueKind::kFifo); }
void BM_Heap(benchmark::State& state) { run_queue_mix(state, QueueKind::kHeap); }
void BM_Takeover(benchmark::State& state) {
  run_queue_mix(state, QueueKind::kTakeover);
}

BENCHMARK(BM_Fifo)->Arg(4)->Arg(64)->Arg(1024);
BENCHMARK(BM_Heap)->Arg(4)->Arg(64)->Arg(1024);
BENCHMARK(BM_Takeover)->Arg(4)->Arg(64)->Arg(1024);

void BM_EdfArbiterPick(benchmark::State& state) {
  // The switch's EDF input arbitration (edf_pick, what Switch::try_fill
  // runs) over a full candidate row with every input eligible.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<std::int64_t> row(n);
  for (auto& d : row) {
    d = static_cast<std::int64_t>(rng.uniform_int(0, 1 << 20));
  }
  const auto eligible = [](std::size_t) { return true; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(edf_pick(row.data(), row.size(), eligible));
  }
}
BENCHMARK(BM_EdfArbiterPick)->Arg(4)->Arg(16)->Arg(64);

// PR 7 batch-grain ablations: isolated before/after numbers for the three
// batched hot loops. Report into BENCH_history.jsonl via
//   scripts/bench_report.py --gbench --bench build-bench/bench/bench_queue_ops
//       --sections batch_drain,coalesced_credit,argmin_scan --history ...
// (the gbench adapter maps items/s to events/s per section).

void BM_CalendarBatchDrain(benchmark::State& state) {
  // One drain batch per iteration: `batch` events land inside one due
  // window and drain_due() fires them all in a single re-entry. Before
  // PR 7 the same work was one pop-per-event through run_until.
  const auto batch = static_cast<std::int64_t>(state.range(0));
  Simulator sim;
  Rng rng(9);
  for (auto _ : state) {
    const std::int64_t start = sim.now().ps();
    for (std::int64_t i = 0; i < batch; ++i) {
      sim.schedule_at(
          TimePoint::from_ps(start + static_cast<std::int64_t>(
                                         rng.uniform_int(1, 100'000))),
          [] {});
    }
    sim.run_until(TimePoint::from_ps(start + 100'001));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_CalendarBatchDrain)->Arg(16)->Arg(256)->Arg(4096);

void BM_CoalescedCreditReturn(benchmark::State& state) {
  // `group` same-instant per-packet returns on one (channel, vc) fold
  // into a single flush event (plus one wire hop) — before PR 7 every
  // return was its own calendar event.
  const auto group = static_cast<std::uint32_t>(state.range(0));
  Simulator sim;
  Channel ch(sim, Bandwidth::from_gbps(8.0), Duration::nanoseconds(100),
             /*num_vcs=*/2, /*credits_per_vc=*/1 << 20);
  for (auto _ : state) {
    for (std::uint32_t g = 0; g < group; ++g) {
      ch.consume_credits(0, 256);
      ch.return_credits(0, 256);
    }
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          group);
}
BENCHMARK(BM_CoalescedCreditReturn)->Arg(1)->Arg(8)->Arg(64);

void BM_ArgminScan(benchmark::State& state) {
  // The arbiter's min-deadline row scan in isolation: simd::argmin_i64
  // over a mostly-sentinel row, the exact shape try_fill sees.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(21);
  std::vector<std::int64_t> row(n, std::numeric_limits<std::int64_t>::max());
  for (std::size_t i = 0; i < n; i += 3) {
    row[i] = static_cast<std::int64_t>(rng.uniform_int(0, 1 << 20));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::argmin_i64(row.data(), row.size()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ArgminScan)->Arg(16)->Arg(64)->Arg(256);

void BM_PacketPoolChurn(benchmark::State& state) {
  PacketPool pool;
  for (auto _ : state) {
    PacketPtr p = pool.make();
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PacketPoolChurn);

}  // namespace
}  // namespace dqos

BENCHMARK_MAIN();
