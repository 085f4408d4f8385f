// google-benchmark micro-benchmarks for the hot paths: per-exchange
// processing cost of the full clock (the on-line budget is one call per
// poll — the paper stresses low host burden), the estimator internals
// (offset window, top window, the batch exp), the §5.3 smoother and its
// shift cuts, the wire codec, the random draws and the simulator's batch
// generation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "common/allan.hpp"
#include "common/libm_exp.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/time_types.hpp"
#include "core/clock.hpp"
#include "core/naive.hpp"
#include "core/offline.hpp"
#include "core/offset.hpp"
#include "core/window.hpp"
#include "harness/replay.hpp"
#include "sim/scenario.hpp"
#include "wire/ntp_packet.hpp"

namespace {

using namespace tscclock;

// Cheap synthetic exchange stream (no testbed overhead in the loop).
class ExchangeStream {
 public:
  explicit ExchangeStream(double period) : period_(period) {}
  /// The next exchange, `queue` seconds of forward queueing added.
  core::RawExchange next(double queue = 0.0) {
    core::RawExchange ex;
    const double ta = now_;
    const double tb = ta + 450e-6 + queue;
    const double te = tb + 40e-6;
    const double tf = te + 400e-6;
    ex.ta = static_cast<TscCount>(ta / period_);
    ex.tb = tb;
    ex.te = te;
    ex.tf = static_cast<TscCount>(tf / period_);
    now_ += 16.0;
    return ex;
  }

 private:
  double period_;
  double now_ = 1.0;
};

void BM_ProcessExchange(benchmark::State& state) {
  const double period = 2e-9;
  core::Params params;
  core::TscNtpClock clock(params, period);
  ExchangeStream stream(period);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clock.process_exchange(stream.next()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ProcessExchange);

void BM_AbsoluteTimeRead(benchmark::State& state) {
  const double period = 2e-9;
  core::Params params;
  core::TscNtpClock clock(params, period);
  ExchangeStream stream(period);
  core::RawExchange last{};
  for (int i = 0; i < 200; ++i) {
    last = stream.next();
    clock.process_exchange(last);
  }
  TscCount t = last.tf;
  for (auto _ : state) {
    t += 1000;
    benchmark::DoNotOptimize(clock.absolute_time(t));
  }
}
BENCHMARK(BM_AbsoluteTimeRead);

void BM_NaiveOffset(benchmark::State& state) {
  const double period = 2e-9;
  ExchangeStream stream(period);
  const auto ex = stream.next();
  const CounterTimescale clock(0, 0.0, period);
  for (auto _ : state) benchmark::DoNotOptimize(core::naive_offset(ex, clock));
}
BENCHMARK(BM_NaiveOffset);

// Window records from a 16 s poll with exponential queueing (mean 100 us),
// one packet in 20 congested by up to 4 ms: weights spread over the whole
// range, some entries far beyond exp's underflow.
class RecordStream {
 public:
  explicit RecordStream(double period) : stream_(period) {
    Rng rng(4);
    for (auto& q : queue_)
      q = rng.exponential(100e-6) +
          (rng.uniform() < 0.05 ? rng.uniform(0.0, 4e-3) : 0.0);
  }
  core::PacketRecord next() {
    core::PacketRecord rec;
    rec.seq = seq_;
    rec.stamps = stream_.next(queue_[seq_++ & 4095]);
    rec.rtt = rec.stamps.rtt_counts();
    min_rtt_ = std::min(min_rtt_, rec.rtt);
    rec.error_counts = rec.rtt - min_rtt_;
    return rec;
  }

 private:
  ExchangeStream stream_;
  std::vector<double> queue_ = std::vector<double>(4096);
  std::uint64_t seq_ = 0;
  TscDelta min_rtt_ = std::numeric_limits<TscDelta>::max();
};

// One §5.3 offset evaluation over a full window of range(0) entries (62 is
// the default 1000 s window at a 16 s poll, 15 at a 64 s poll).
void BM_OffsetProcess(benchmark::State& state) {
  const double period = 2e-9;
  core::Params params;
  params.offset_window = 16.0 * static_cast<double>(state.range(0)) + 8.0;
  core::OffsetEstimator offset(params);
  RecordStream records(period);
  const CounterTimescale clock(0, 0.0, period);
  for (int i = 0; i < state.range(0); ++i)
    offset.process(records.next(), clock, 1e-8, false, false);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        offset.process(records.next(), clock, 1e-8, false, false));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_OffsetProcess)->Arg(62)->Arg(15);

// One §6.1 top-window add at the default one-week window and 16 s poll,
// updates included as they come (one per 18900 adds).
void BM_TopWindowAdd(benchmark::State& state) {
  core::Params params;
  core::TopWindow window(params);
  RecordStream records(2e-9);
  for (auto _ : state) benchmark::DoNotOptimize(window.add(records.next(), 0));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TopWindowAdd);

// exp over one 62-entry offset window of −z² values: one std::exp per entry
// against exp_batch, which returns the same doubles (tests/test_libm_exp.cpp).
// Args: the percentage of entries at or below −1024 (the share that
// underflows to +0; 15–50% in the smoother's windows) and the percentage in
// (−1024, −512], which both go to std::exp.
template <class Exp>
void BM_ExpBatch(benchmark::State& state, Exp exp) {
  Rng rng(5);
  std::vector<double> x(62);
  const auto underflow = static_cast<double>(state.range(0)) / 100;
  const auto special = static_cast<double>(state.range(1)) / 100;
  for (auto& v : x) {
    const double pick = rng.uniform();
    if (pick < underflow) {
      v = -1024.0 - rng.exponential(1e-4);
    } else if (pick < underflow + special) {
      v = -512.0 - 511.0 * rng.uniform();
    } else {
      const double z =
          rng.exponential(2.0) + (rng.uniform() < 0.05 ? 20.0 : 0.0);
      v = -z * z;
    }
  }
  std::vector<double> out(x.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.data());
    exp(x, out);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * x.size()));
  if (!exp_kernel_selected()) state.SetLabel("kernel not selected: std::exp");
}
BENCHMARK_CAPTURE(BM_ExpBatch, std, [](const std::vector<double>& x,
                                       std::vector<double>& out) {
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = std::exp(x[i]);
})->Args({0, 0})->Args({25, 0})->Args({50, 0})->Args({25, 8});
BENCHMARK_CAPTURE(BM_ExpBatch, kernel, [](const std::vector<double>& x,
                                          std::vector<double>& out) {
  exp_batch(x, out);
})->Args({0, 0})->Args({25, 0})->Args({50, 0})->Args({25, 8});

// A 16k-record trace at a 16 s poll (three days), with exponential
// queueing on every packet and a congested stretch every few hours: the
// §5.3 smoother's and the split variant's input.
std::vector<core::RawExchange> poll16_trace() {
  const double period = 2e-9;
  ExchangeStream stream(period);
  Rng rng(16);
  std::vector<core::RawExchange> trace(16384);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool congested = i % 900 < 40;
    trace[i] = stream.next(rng.exponential(150e-6) +
                           (congested ? 3e-3 * rng.uniform() : 0.0));
  }
  return trace;
}

void BM_SmoothOffsets(benchmark::State& state) {
  const auto trace = poll16_trace();
  const auto params = core::Params::for_poll_period(16.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::smooth_offsets(trace, params, 2e-9));
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * trace.size()));
}
BENCHMARK(BM_SmoothOffsets)->Unit(benchmark::kMillisecond);

void BM_ShiftCutPoints(benchmark::State& state) {
  const auto trace = poll16_trace();
  const auto params = core::Params::for_poll_period(16.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(harness::shift_cut_points(trace, params, 2e-9));
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * trace.size()));
}
BENCHMARK(BM_ShiftCutPoints)->Unit(benchmark::kMicrosecond);

void BM_WindowedMinPush(benchmark::State& state) {
  WindowedMin<std::int64_t> wm(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  std::vector<std::int64_t> values;
  for (int i = 0; i < 4096; ++i)
    values.push_back(static_cast<std::int64_t>(rng.uniform(0, 1e6)));
  std::size_t k = 0;
  for (auto _ : state) {
    wm.push(values[k++ & 4095]);
    benchmark::DoNotOptimize(wm.valid());
  }
}
BENCHMARK(BM_WindowedMinPush)->Arg(64)->Arg(1024);

void BM_AllanDeviation(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> phase;
  for (int i = 0; i < state.range(0); ++i) phase.push_back(rng.normal(1e-6));
  const auto factors = log_spaced_factors(phase.size(), 4);
  for (auto _ : state)
    benchmark::DoNotOptimize(allan_deviation(phase, 16.0, factors));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AllanDeviation)->Arg(4096)->Arg(32768);

void BM_PercentileSummary(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < state.range(0); ++i) values.push_back(rng.uniform());
  for (auto _ : state)
    benchmark::DoNotOptimize(percentile_summary(values));
}
BENCHMARK(BM_PercentileSummary)->Arg(1024)->Arg(65536);

void BM_NtpPacketEncode(benchmark::State& state) {
  const auto packet = wire::make_client_request({100, 200}, 4);
  for (auto _ : state) benchmark::DoNotOptimize(wire::encode(packet));
}
BENCHMARK(BM_NtpPacketEncode);

void BM_NtpPacketDecode(benchmark::State& state) {
  const auto bytes = wire::encode(wire::make_client_request({100, 200}, 4));
  for (auto _ : state) benchmark::DoNotOptimize(wire::decode(bytes));
}
BENCHMARK(BM_NtpPacketDecode);

// Rng draws next to the std::mt19937_64 + std:: distribution reference whose
// stream they reproduce bit for bit (tests/test_rng.cpp): same values, so the
// difference is pure cost. The draw parameter is hidden from the optimizer,
// as a simulator config value is.
template <class Engine, class Draw>
void BM_Draw(benchmark::State& state, Engine engine, double param, Draw draw) {
  // Read back through a volatile: after DoNotOptimize(param) the gcc 12
  // ASAN+UBSAN build passed the draws 0 (the pareto draw's shape contract
  // aborted the run).
  volatile double hidden = param;
  const double value = hidden;
  for (auto _ : state) benchmark::DoNotOptimize(draw(engine, value));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_Draw, rng_word, Rng(1), 0.0,
                  [](Rng& r, double) { return r.engine()(); });
BENCHMARK_CAPTURE(BM_Draw, std_word, std::mt19937_64(1), 0.0,
                  [](std::mt19937_64& e, double) { return e(); });
BENCHMARK_CAPTURE(BM_Draw, rng_uniform, Rng(1), 0.0,
                  [](Rng& r, double) { return r.uniform(); });
BENCHMARK_CAPTURE(BM_Draw, std_uniform, std::mt19937_64(1), 0.0,
                  [](std::mt19937_64& e, double) {
                    return std::uniform_real_distribution<double>(0.0, 1.0)(e);
                  });
BENCHMARK_CAPTURE(BM_Draw, rng_normal, Rng(1), 1e-6,
                  [](Rng& r, double stddev) { return r.normal(stddev); });
BENCHMARK_CAPTURE(BM_Draw, std_normal, std::mt19937_64(1), 1e-6,
                  [](std::mt19937_64& e, double stddev) {
                    return std::normal_distribution<double>(0.0, stddev)(e);
                  });
BENCHMARK_CAPTURE(BM_Draw, rng_pareto, Rng(1), 2.5,
                  [](Rng& r, double shape) { return r.pareto(shape, 1.2e-3); });
BENCHMARK_CAPTURE(BM_Draw, std_pareto, std::mt19937_64(1), 2.5,
                  [](std::mt19937_64& e, double shape) {
                    const double u = std::uniform_real_distribution<double>(
                        std::numeric_limits<double>::min(), 1.0)(e);
                    return 1.2e-3 * (std::pow(u, -1.0 / shape) - 1.0);
                  });

// One 1024-row chunk of Testbed::generate_batch, the unit the session drive
// pulls: every sim component's draws, the oscillator and wire quantization.
void BM_GenerateBatch(benchmark::State& state) {
  sim::ScenarioConfig scenario;
  scenario.duration = 30 * duration::kDay;
  auto testbed = std::make_unique<sim::Testbed>(scenario);
  sim::ExchangeBatch batch;
  constexpr std::size_t kRows = 1024;
  int64_t rows = 0;
  for (auto _ : state) {
    const std::size_t made = testbed->generate_batch(batch, kRows);
    rows += static_cast<int64_t>(made);
    if (made < kRows) {
      state.PauseTiming();
      testbed = std::make_unique<sim::Testbed>(scenario);
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(batch.tb_stamp.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(rows);
}
BENCHMARK(BM_GenerateBatch);

}  // namespace

BENCHMARK_MAIN();
