// E10 — substrate micro-benchmarks (google-benchmark): event queue, hardware
// clocks, crypto, churn-schedule generation, and end-to-end CPS simulation
// throughput.

#include <benchmark/benchmark.h>
#include <cstddef>
#include <cstdint>
#include <string>

#include "bench_common.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "relay/schedule.hpp"
#include "relay/topology.hpp"
#include "sim/engine.hpp"
#include "sim/hardware_clock.hpp"

namespace crusader {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int i = 0; i < 1000; ++i)
      queue.schedule(static_cast<double>((i * 7919) % 1000), [] {});
    while (!queue.empty()) queue.pop_and_run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

// The max-delay tie pattern: 1,000 events on Arg distinct times with every
// fifth cancelled as it is scheduled, so the (time, seq) tie-break decides
// the order and cancelled entries wait in the heap. Reported only; no gate.
void BM_EventQueueTies(benchmark::State& state) {
  const auto times = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int i = 0; i < 1000; ++i) {
      const sim::EventId id =
          queue.schedule(static_cast<double>(i % times), [] {});
      if (i % 5 == 0) queue.cancel(id);
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop_and_run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueTies)->Arg(4);

void BM_HardwareClockEval(benchmark::State& state) {
  util::Rng rng(1);
  const auto clock = sim::HardwareClock::random_walk(rng, 1.05, 0.1, 1.0, 1000.0);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.37;
    if (t > 900.0) t = 0.0;
    benchmark::DoNotOptimize(clock.local(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HardwareClockEval);

void BM_HardwareClockInverse(benchmark::State& state) {
  util::Rng rng(1);
  const auto clock = sim::HardwareClock::random_walk(rng, 1.05, 0.1, 1.0, 1000.0);
  double h = 1.0;
  for (auto _ : state) {
    h += 0.37;
    if (h > 900.0) h = 1.0;
    benchmark::DoNotOptimize(clock.real(h));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HardwareClockInverse);

void BM_Sha256(benchmark::State& state) {
  const std::string msg(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(msg));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024);

void BM_HmacSign(benchmark::State& state) {
  crypto::Pki pki(8, crypto::Pki::Kind::kHmac, 1);
  Round round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pki.sign(0, crypto::make_pulse_payload(++round)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HmacSign);

void BM_SymbolicSign(benchmark::State& state) {
  crypto::Pki pki(8, crypto::Pki::Kind::kSymbolic, 1);
  Round round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pki.sign(0, crypto::make_pulse_payload(++round)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SymbolicSign);

/// One churned cell's set-up: a seeded schedule on a 512-node hypercube at
/// churn 0.1 with 4 leaves per epoch over 14 epochs. Each rewire runs one
/// bridge check and each leave one reachability check over the live graph.
void BM_ScheduleGenerate(benchmark::State& state) {
  const auto topo = relay::Topology::hypercube(9);
  relay::ChurnPolicy policy;
  policy.churn_rate = 0.1;
  policy.join_batch = 4;
  policy.reconnect = relay::ReconnectPolicy::kRandom;
  std::size_t changes = 0;
  for (auto _ : state) {
    const auto schedule =
        relay::TopologySchedule::generate(topo, policy, 14, 1);
    changes = 0;
    for (const auto& delta : schedule.deltas())
      changes += delta.added.size() + delta.removed.size();
    benchmark::DoNotOptimize(changes);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["edge_changes"] = static_cast<double>(changes);
}
BENCHMARK(BM_ScheduleGenerate)->Unit(benchmark::kMillisecond);

/// End-to-end: one full CPS world (n nodes, 10 pulse rounds). Items = engine
/// events processed, so the counter reports simulator events/second.
void BM_CpsWorld(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto model =
      bench::bench_model(n, sim::ModelParams::max_faults_signed(n));
  std::uint64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto result =
        bench::run_protocol(baselines::ProtocolKind::kCps, model, 0,
                            core::ByzStrategy::kCrash, ++seed, 10);
    events += result.events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_CpsWorld)->Arg(5)->Arg(9)->Arg(15)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace crusader

BENCHMARK_MAIN();
