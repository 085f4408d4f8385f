// perfbench_layers: the benchmark's in-process layer runner. It calls the
// repository's public layer functions (sim, core, baseline, harness, trace,
// sweep) from outside and times each call with a span.
//
//   perfbench_layers info
//       Print the compiler and build type this binary was built with.
//   perfbench_layers export --seed N --hours H --dir D
//       Write the trace_replay inputs: the sim cells {int, ext} x
//       {steady, stress} on machine-room/poll16, two declaring reference
//       ground truth and two relative, through trace::write_trace.
//   perfbench_layers trace --spans-out F --report-out F --cells-out F
//                          [--export-hours H --export-dir D] -- SWEEP FLAGS
//       Run the sweep described by SWEEP FLAGS (the subset of tools/sweep
//       flags the workloads use) in up to four passes and print one JSON
//       object of per-pass span aggregates:
//         W  export the trace_replay inputs again, timing generation and
//            trace writes (only with --export-hours);
//         A  untraced cells through sweep::run_scenario_multi, one span per
//            scenario, then print_sweep_report (its text goes to
//            --report-out and the serialized cells to --cells-out, so the
//            caller can check them against the timed CLI run);
//         B  the same cells driven by hand through the public drive calls,
//            with a timing decorator around every estimator and a
//            forwarding sink around every reducer; its results must
//            serialize identically to pass A's;
//         G  fleet cells only: a generation-only pass over the same seeds,
//            because generation inside FleetSession::run_batched cannot be
//            reached from outside.
//       Spans live in memory until the end of the run and are then written
//       to --spans-out (layout in perfbench/README.md).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "harness/estimator_spec.hpp"
#include "harness/fleet_session.hpp"
#include "harness/replay.hpp"
#include "harness/sinks.hpp"
#include "sim/fleet.hpp"
#include "sweep/result_io.hpp"
#include "sweep/sweep.hpp"
#include "sweep/thread_pool.hpp"
#include "trace/trace_io.hpp"

using namespace tscclock;

namespace {

// -- Spans -------------------------------------------------------------------

enum Name : std::uint16_t {
  kCell,             // pass A: sweep::run_scenario_multi, one per scenario
  kReport,           // pass A: sweep::print_sweep_report
  kTracedCell,       // pass B: one hand-driven scenario (root span)
  kGenerate,         // Testbed / FleetTestbed ::generate_batch, per chunk
  kProcessBatch,     // MultiEstimatorSession::process_batch, per chunk
  kFleetRun,         // FleetSession::run_batched, per cell
  kReplayRun,        // ReplaySession::run, per lane
  kRobust,           // robust process_exchange, per call
  kSwntp,            // swntp process_exchange, per call
  kNaive,            // naive process_exchange, per call
  kOffline,          // offline ReplayEstimator::process_trace, per lane
  kReduceStreaming,  // StreamingReducerSink delivery, per call
  kReduceExact,      // ReducerSink delivery, per call
  kFleetPool,        // the fleet population pool's delivery, per call
  kFinalize,         // reducer reduce(), per lane
  kTraceRead,        // trace::read_trace, per file read
  kTraceWrite,       // trace::write_trace, per file
  kNameCount
};

constexpr const char* kNames[kNameCount] = {
    "sweep.cell",          "sweep.report",
    "bench.cell",          "sim.generate",
    "harness.process_batch", "harness.fleet_run",
    "harness.replay_run",  "core.robust",
    "baseline.swntp",      "baseline.naive",
    "core.offline",        "harness.reduce.streaming",
    "harness.reduce.exact", "harness.reduce.fleet_pool",
    "harness.reduce.finalize", "trace.read",
    "trace.write"};

constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  std::uint16_t name = 0;
  std::uint16_t pass = 0;
  std::uint32_t parent = kNoParent;  // index into the same thread's log
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t items = 0;  // work units the call handled (rows, samples)
};

/// One thread's spans, in start order, plus the stack of open ones.
struct SpanLog {
  std::vector<Span> spans;
  std::vector<std::uint32_t> open;
};

std::mutex g_logs_mutex;
std::vector<std::unique_ptr<SpanLog>> g_logs;  // guarded by g_logs_mutex
thread_local SpanLog* t_log = nullptr;
// Written only between passes, while no worker thread exists; the pool's
// task hand-off orders it before every read.
std::uint16_t g_pass = 0;

SpanLog& local_log() {
  if (t_log == nullptr) {
    std::lock_guard<std::mutex> lock(g_logs_mutex);
    g_logs.push_back(std::make_unique<SpanLog>());
    t_log = g_logs.back().get();
  }
  return *t_log;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Records one span from construction to destruction; the innermost open
/// span of the same thread is its parent.
class ScopedSpan {
 public:
  explicit ScopedSpan(Name name, std::uint64_t items = 0)
      : log_(local_log()) {
    Span span;
    span.name = name;
    span.pass = g_pass;
    span.parent = log_.open.empty() ? kNoParent : log_.open.back();
    span.items = items;
    index_ = static_cast<std::uint32_t>(log_.spans.size());
    log_.spans.push_back(span);
    log_.open.push_back(index_);
    log_.spans[index_].start_ns = now_ns();
  }
  ~ScopedSpan() {
    log_.spans[index_].end_ns = now_ns();
    log_.open.pop_back();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(std::uint64_t items) { log_.spans[index_].items = items; }

 private:
  SpanLog& log_;
  std::uint32_t index_ = 0;
};

// -- Decorators ----------------------------------------------------------------

Name estimator_span(const harness::EstimatorSpec& spec) {
  if (spec.family == "robust") return kRobust;
  if (spec.family == "swntp") return kSwntp;
  if (spec.family == "naive") return kNaive;
  if (spec.family == "offline") return kOffline;
  throw std::runtime_error("no span name for estimator family '" +
                           spec.family + "'");
}

/// Times every process_exchange call of the wrapped estimator; every other
/// call is forwarded untimed.
class TimedEstimator final : public harness::ClockEstimator {
 public:
  TimedEstimator(std::unique_ptr<harness::ClockEstimator> inner, Name name)
      : inner_(std::move(inner)), name_(name) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  core::ProcessReport process_exchange(
      const core::RawExchange& exchange) override {
    const ScopedSpan span(name_, 1);
    return inner_->process_exchange(exchange);
  }
  void notify_server_change() override { inner_->notify_server_change(); }
  [[nodiscard]] Seconds uncorrected_time(TscCount count) const override {
    return inner_->uncorrected_time(count);
  }
  [[nodiscard]] Seconds absolute_time(TscCount count) const override {
    return inner_->absolute_time(count);
  }
  [[nodiscard]] double period() const override { return inner_->period(); }
  [[nodiscard]] bool warmed_up() const override { return inner_->warmed_up(); }
  [[nodiscard]] std::uint64_t steps() const override {
    return inner_->steps();
  }
  [[nodiscard]] core::ClockStatus status() const override {
    return inner_->status();
  }

 private:
  std::unique_ptr<harness::ClockEstimator> inner_;
  Name name_;
};

/// Times process_trace of the wrapped replay estimator; items = samples
/// that arrived (the ones the smoother processes).
class TimedReplayEstimator final : public harness::ReplayEstimator {
 public:
  TimedReplayEstimator(std::unique_ptr<harness::ReplayEstimator> inner,
                       Name name)
      : inner_(std::move(inner)), name_(name) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  harness::ReplayOutput process_trace(
      std::span<const harness::ReplaySample> samples) override {
    const auto arrived = static_cast<std::uint64_t>(std::count_if(
        samples.begin(), samples.end(),
        [](const harness::ReplaySample& s) { return !s.lost; }));
    const ScopedSpan span(name_, arrived);
    return inner_->process_trace(samples);
  }

 private:
  std::unique_ptr<harness::ReplayEstimator> inner_;
  Name name_;
};

/// Forwards every delivery to the wrapped sink inside a span; items =
/// evaluated samples delivered.
class TimedSink final : public harness::SampleSink {
 public:
  TimedSink(harness::SampleSink& inner, Name name)
      : inner_(inner), name_(name) {}

  void on_sample(const harness::SampleRecord& record) override {
    const ScopedSpan span(name_, record.evaluated ? 1 : 0);
    inner_.on_sample(record);
  }
  [[nodiscard]] bool wants_batch() const override {
    return inner_.wants_batch();
  }
  void on_batch(const harness::SampleBatch& batch) override {
    const ScopedSpan span(name_, batch.size());
    inner_.on_batch(batch);
  }

 private:
  harness::SampleSink& inner_;
  Name name_;
};

// -- Reducers, as the sweep builds them -----------------------------------------

/// Either reduction engine behind one reduce() call, with the sweep's ADEV
/// factors (16 and 256 polling periods).
struct Reducer {
  std::optional<harness::ReducerSink> exact;
  std::optional<harness::StreamingReducerSink> streaming;

  Reducer(double tau0, bool use_streaming, harness::GroundTruthMode mode =
                                               harness::GroundTruthMode::kReference) {
    if (use_streaming)
      streaming.emplace(tau0, 16, 256, mode);
    else
      exact.emplace(tau0, 16, 256, mode);
  }
  harness::SampleSink& sink() {
    return streaming ? static_cast<harness::SampleSink&>(*streaming)
                     : static_cast<harness::SampleSink&>(*exact);
  }
  Name span() const { return streaming ? kReduceStreaming : kReduceExact; }
  harness::ReducerSink::Reduction reduce() const {
    const ScopedSpan span(kFinalize, 1);
    return streaming ? streaming->reduce() : exact->reduce();
  }
};

/// The fleet cell's population pool: every lane's evaluated clock and
/// offset errors in one summary pair. The sweep's own pool is internal to
/// sweep.cpp; this one repeats its arithmetic, and pass B's cell-by-cell
/// comparison with pass A proves the two agree bit for bit.
class PoolSink final : public harness::SampleSink {
 public:
  explicit PoolSink(bool use_streaming) : streaming_(use_streaming) {}
  void on_sample(const harness::SampleRecord& record) override {
    if (record.evaluated) add(record.abs_clock_error, record.offset_error);
  }
  [[nodiscard]] bool wants_batch() const override { return true; }
  void on_batch(const harness::SampleBatch& batch) override {
    for (std::size_t i = 0; i < batch.size(); ++i)
      add(batch.abs_clock_error[i], batch.offset_error[i]);
  }
  SeriesSummary clock_error() const {
    return streaming_ ? clock_stream_.summary() : summarize(clock_errors_);
  }
  SeriesSummary offset_error() const {
    return streaming_ ? offset_stream_.summary() : summarize(offset_errors_);
  }

 private:
  void add(double clock_error, double offset_error) {
    if (streaming_) {
      clock_stream_.add(clock_error);
      offset_stream_.add(offset_error);
    } else {
      clock_errors_.push_back(clock_error);
      offset_errors_.push_back(offset_error);
    }
  }
  bool streaming_;
  std::vector<double> clock_errors_;
  std::vector<double> offset_errors_;
  StreamingSeriesSummary clock_stream_;
  StreamingSeriesSummary offset_stream_;
};

// -- The workload, as the sweep CLI describes it ----------------------------------

struct Workload {
  sweep::GridSpec grid;
  Seconds warmup = duration::kHour;  // the CLI's default --warmup-s
  std::size_t threads = 0;
  bool streaming = true;  // the CLI default
};

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench_layers: %s\n", message.c_str());
  std::exit(2);
}

std::vector<std::string> split(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) out.push_back(item);
  return out;
}

double to_double(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(v))
    die("invalid number '" + text + "'");
  return v;
}

/// The named schedules the workloads use, placed like tools/sweep's
/// make_schedule places them. A drift between the two shows up as a report
/// mismatch in run.py's cross-check of pass A against the CLI run.
sweep::ScheduleVariant make_schedule(const std::string& name,
                                     Seconds duration) {
  sweep::ScheduleVariant variant;
  variant.name = name;
  if (name == "steady") return variant;
  if (name == "stress") {
    variant.events.add_outage(0.25 * duration,
                              0.25 * duration + 20 * duration::kMinute);
    variant.events.add_server_fault(0.55 * duration,
                                    0.55 * duration + 10 * duration::kMinute,
                                    150 * duration::kMillisecond);
    variant.server_switches = {{duration / 2, sim::ServerKind::kLoc}};
    return variant;
  }
  die("unsupported schedule '" + name + "' (steady|stress)");
}

/// Parse the subset of tools/sweep flags the workloads use.
Workload parse_workload(const std::vector<std::string>& args) {
  Workload w;
  std::vector<std::string> schedules = {"steady"};
  double hours = 24.0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) die("missing value for " + arg);
      return args[++i];
    };
    if (arg == "--servers") {
      w.grid.servers.clear();
      for (const auto& s : split(value())) {
        if (s == "loc") w.grid.servers.push_back(sim::ServerKind::kLoc);
        else if (s == "int") w.grid.servers.push_back(sim::ServerKind::kInt);
        else if (s == "ext") w.grid.servers.push_back(sim::ServerKind::kExt);
        else die("unknown server '" + s + "'");
      }
    } else if (arg == "--envs") {
      w.grid.environments.clear();
      for (const auto& e : split(value())) {
        if (e == "lab") w.grid.environments.push_back(sim::Environment::kLaboratory);
        else if (e == "machine") w.grid.environments.push_back(sim::Environment::kMachineRoom);
        else die("unknown environment '" + e + "'");
      }
    } else if (arg == "--polls") {
      w.grid.poll_periods.clear();
      for (const auto& p : split(value())) w.grid.poll_periods.push_back(to_double(p));
    } else if (arg == "--schedules") {
      schedules = split(value());
    } else if (arg == "--estimators") {
      w.grid.estimators = harness::estimator_registry().parse_list(value());
    } else if (arg == "--fleet") {
      w.grid.fleets = sweep::parse_fleet_specs(value());
    } else if (arg == "--duration-hours") {
      hours = to_double(value());
    } else if (arg == "--seed") {
      w.grid.master_seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--threads") {
      w.threads = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--exact-reduction") {
      w.streaming = false;
    } else if (arg == "--trace-in") {
      w.grid.trace_inputs.push_back(value());
    } else {
      die("unsupported sweep flag " + arg);
    }
  }
  w.grid.duration = hours * duration::kHour;
  w.grid.schedules.clear();
  for (const auto& name : schedules)
    w.grid.schedules.push_back(make_schedule(name, w.grid.duration));
  return w;
}

harness::SessionConfig sim_session_config(const sweep::SweepScenario& scenario,
                                          Seconds warmup) {
  harness::SessionConfig config;
  config.params = core::Params::for_poll_period(scenario.config.poll_period);
  config.discard_warmup = warmup;
  config.warmup_policy = harness::WarmupPolicy::kObservable;
  return config;
}

sweep::ScenarioResult base_result(const sweep::SweepScenario& scenario,
                                  const harness::EstimatorSpec& spec) {
  sweep::ScenarioResult r;
  r.scenario_index = scenario.index;
  r.name = scenario.name;
  r.seed = scenario.config.seed;
  r.server = scenario.config.server;
  r.environment = scenario.config.environment;
  r.estimator = spec;
  return r;
}

void fill_counts(sweep::ScenarioResult& r, const harness::SessionSummary& s) {
  r.exchanges = s.exchanges;
  r.lost = s.lost;
  r.evaluated = s.evaluated;
  r.polls = static_cast<std::size_t>(s.polls_enumerated);
  r.skipped = r.polls - r.exchanges;
  r.final_status = s.final_status;
}

void fill_reduction(sweep::ScenarioResult& r,
                    const harness::ReducerSink::Reduction& red,
                    bool errors_too) {
  if (errors_too) {
    r.clock_error = red.clock_error;
    r.offset_error = red.offset_error;
  }
  r.adev_short_tau = red.adev_short_tau;
  r.adev_short = red.adev_short;
  r.adev_long_tau = red.adev_long_tau;
  r.adev_long = red.adev_long;
}

/// Bytes an exact reducer holds for `evaluated` samples: times, clock
/// errors and offset errors, 8 B each; relative traces keep no clock errors.
std::uint64_t exact_retained_bytes(std::size_t evaluated,
                                   harness::GroundTruthMode mode) {
  const std::uint64_t series =
      mode == harness::GroundTruthMode::kRelativeOnly ? 2 : 3;
  return static_cast<std::uint64_t>(evaluated) * series * 8;
}

std::mutex g_retained_mutex;
std::uint64_t g_retained_max = 0;  // guarded by g_retained_mutex

void note_retained(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(g_retained_mutex);
  g_retained_max = std::max(g_retained_max, bytes);
}

/// Pass B for a single-client simulated cell with online estimators: the
/// drive of sweep::run_scenario_multi, one chunk at a time.
std::vector<sweep::ScenarioResult> traced_sim_cell(
    const sweep::SweepScenario& scenario, const Workload& w) {
  const auto& registry = harness::estimator_registry();
  const auto& specs = w.grid.estimators;
  sim::Testbed testbed(scenario.config);
  const harness::SessionConfig config = sim_session_config(scenario, w.warmup);

  harness::MultiEstimatorSession session;
  std::vector<std::unique_ptr<Reducer>> reducers;
  std::vector<std::unique_ptr<TimedSink>> sinks;
  for (const auto& spec : specs) {
    const std::size_t lane = session.add_lane(
        config, std::make_unique<TimedEstimator>(
                    registry.make_online(spec, config.params,
                                         testbed.nominal_period()),
                    estimator_span(spec)));
    reducers.push_back(std::make_unique<Reducer>(scenario.config.poll_period,
                                                 w.streaming));
    sinks.push_back(std::make_unique<TimedSink>(reducers.back()->sink(),
                                                reducers.back()->span()));
    session.add_sink(lane, *sinks.back());
  }

  constexpr std::size_t kChunk = 1024;  // the sweep's drive chunk
  sim::ExchangeBatch batch;
  while (true) {
    std::size_t n = 0;
    {
      ScopedSpan span(kGenerate);
      n = testbed.generate_batch(batch, kChunk);
      span.set_items(n);
    }
    if (n > 0) {
      const ScopedSpan span(kProcessBatch, n);
      session.process_batch(batch);
    }
    if (n < kChunk) break;
  }

  std::vector<sweep::ScenarioResult> results;
  for (std::size_t e = 0; e < specs.size(); ++e) {
    harness::ClockSession& lane = session.lane(e);
    lane.set_polls_enumerated(testbed.polls_enumerated());
    sweep::ScenarioResult r = base_result(scenario, specs[e]);
    fill_counts(r, lane.summary());
    r.steps = lane.estimator().steps();
    fill_reduction(r, reducers[e]->reduce(), true);
    if (!w.streaming)
      note_retained(exact_retained_bytes(r.evaluated,
                                         harness::GroundTruthMode::kReference));
    results.push_back(std::move(r));
  }
  return results;
}

/// Pass B for a fleet cell: the drive of the sweep's fleet runner, one
/// FleetTestbed + FleetSession per estimator spec.
std::vector<sweep::ScenarioResult> traced_fleet_cell(
    const sweep::SweepScenario& scenario, const Workload& w) {
  const auto& registry = harness::estimator_registry();
  const harness::SessionConfig config = sim_session_config(scenario, w.warmup);
  std::vector<sweep::ScenarioResult> results;
  for (const auto& spec : w.grid.estimators) {
    sim::FleetTestbed fleet(scenario.config, scenario.fleet.config);
    harness::FleetSession session;
    PoolSink pool(w.streaming);
    TimedSink pool_timed(pool, kFleetPool);
    Reducer reference(scenario.config.poll_period, w.streaming);
    TimedSink reference_timed(reference.sink(), reference.span());
    for (std::size_t k = 0; k < fleet.client_count(); ++k) {
      session.add_client(
          config, std::make_unique<TimedEstimator>(
                      registry.make_online(spec, config.params,
                                           fleet.client(k).nominal_period()),
                      estimator_span(spec)));
    }
    session.add_shared_sink(pool_timed);
    session.add_sink(0, reference_timed);
    {
      ScopedSpan span(kFleetRun);
      session.run_batched(fleet);
      span.set_items(session.combined_summary().exchanges);
    }

    sweep::ScenarioResult r = base_result(scenario, spec);
    fill_counts(r, session.combined_summary());
    for (std::size_t k = 0; k < session.client_count(); ++k)
      r.steps += session.client(k).estimator().steps();
    r.clock_error = pool.clock_error();
    r.offset_error = pool.offset_error();
    fill_reduction(r, reference.reduce(), false);
    const harness::FleetReduction fr = session.fleet_reduction();
    r.clients = fr.clients;
    r.fleet_dispersion = fr.dispersion;
    r.fleet_worst_p99 = fr.worst_p99;
    r.fleet_pairwise_spread = fr.pairwise_spread;
    results.push_back(std::move(r));
  }
  return results;
}

std::mutex g_read_mutex;
std::uint64_t g_read_bytes = 0;  // guarded by g_read_mutex

trace::ReadTrace timed_read(const std::string& path) {
  ScopedSpan span(kTraceRead);
  trace::ReadTrace loaded = trace::read_trace(path);
  span.set_items(loaded.trace.exchanges);
  std::lock_guard<std::mutex> lock(g_read_mutex);
  g_read_bytes += std::filesystem::file_size(path);
  return loaded;
}

/// Pass B for an imported-trace cell: the sweep's trace runner.
std::vector<sweep::ScenarioResult> traced_trace_cell(
    const sweep::SweepScenario& scenario, const Workload& w) {
  const auto& registry = harness::estimator_registry();
  const trace::ReadTrace loaded = timed_read(scenario.trace_path);
  const harness::GroundTruthMode mode = loaded.meta.mode;
  harness::SessionConfig config;
  config.params = core::Params::for_poll_period(loaded.meta.poll_period);
  config.discard_warmup = 0;
  config.client_id = loaded.meta.client_id;

  std::vector<sweep::ScenarioResult> results;
  for (const auto& spec : w.grid.estimators) {
    Reducer reducer(loaded.meta.poll_period, w.streaming, mode);
    TimedSink reducer_timed(reducer.sink(), reducer.span());
    harness::ReplaySession replay(
        config, std::make_unique<TimedReplayEstimator>(
                    registry.make_replay(spec, config.params,
                                         loaded.meta.nominal_period),
                    estimator_span(spec)));
    replay.add_sink(reducer_timed);
    harness::SessionSummary summary;
    {
      const ScopedSpan span(kReplayRun, loaded.trace.exchanges);
      summary = replay.run(loaded.trace);
    }
    sweep::ScenarioResult r = base_result(scenario, spec);
    r.from_trace = true;
    r.relative_only = mode == harness::GroundTruthMode::kRelativeOnly;
    fill_counts(r, summary);
    fill_reduction(r, reducer.reduce(), true);
    if (!w.streaming) note_retained(exact_retained_bytes(r.evaluated, mode));
    results.push_back(std::move(r));
  }
  return results;
}

bool any_replay_spec(const Workload& w) {
  const auto& registry = harness::estimator_registry();
  return std::any_of(w.grid.estimators.begin(), w.grid.estimators.end(),
                     [&](const auto& s) { return registry.is_replay(s); });
}

std::vector<sweep::ScenarioResult> traced_cell(
    const sweep::SweepScenario& scenario, const Workload& w) {
  const ScopedSpan span(kTracedCell, 1);
  if (scenario.is_trace()) return traced_trace_cell(scenario, w);
  if (!scenario.fleet.single()) return traced_fleet_cell(scenario, w);
  // A simulated cell scored by replay specs (trace_replay's one small cell)
  // is fixed cost; it runs through the sweep's own runner, untimed inside.
  if (any_replay_spec(w))
    return sweep::run_scenario_multi(scenario, w.grid.estimators, w.warmup,
                                     {}, w.streaming);
  return traced_sim_cell(scenario, w);
}

/// Run `cell` for every scenario on the workload's thread count, results in
/// grid order (scenario-major, estimators minor) like ScenarioSweep::run.
template <typename Cell>
std::vector<sweep::ScenarioResult> run_cells(
    const std::vector<sweep::SweepScenario>& scenarios, const Workload& w,
    Cell cell) {
  const std::size_t lanes = w.grid.estimators.size();
  std::vector<sweep::ScenarioResult> results(scenarios.size() * lanes);
  sweep::ThreadPool pool(std::min(
      sweep::ThreadPool::resolve_thread_count(w.threads), scenarios.size()));
  sweep::parallel_for(pool, scenarios.size(), [&](std::size_t i) {
    auto cell_results = cell(scenarios[i]);
    for (std::size_t e = 0; e < lanes; ++e)
      results[i * lanes + e] = std::move(cell_results[e]);
  });
  return results;
}

/// The CLI reads every --trace-in file once to validate it before the grid
/// runs; both passes repeat that read so they do the CLI's work.
void validate_reads(const Workload& w) {
  for (const auto& path : w.grid.trace_inputs) (void)timed_read(path);
}

// -- Export --------------------------------------------------------------------

struct ExportStats {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
};

/// The trace_replay inputs: machine-room/poll16 cells {int, ext} x
/// {steady, stress}, recorded like `sweep --trace-out` records them. Which
/// files strip the ground truth is fixed so each server and each schedule
/// has one reference and one relative trace.
ExportStats export_traces(std::uint64_t seed, double hours,
                          const std::filesystem::path& dir) {
  Workload w;
  w.grid.servers = {sim::ServerKind::kInt, sim::ServerKind::kExt};
  w.grid.environments = {sim::Environment::kMachineRoom};
  w.grid.poll_periods = {16.0};
  w.grid.duration = hours * duration::kHour;
  w.grid.schedules = {make_schedule("steady", w.grid.duration),
                      make_schedule("stress", w.grid.duration)};
  w.grid.master_seed = seed;
  std::filesystem::create_directories(dir);

  ExportStats stats;
  for (const auto& scenario : sweep::expand_grid(w.grid)) {
    const bool is_int = scenario.config.server == sim::ServerKind::kInt;
    const bool steady = scenario.name.ends_with("/steady");
    const bool relative = is_int != steady;  // int/stress and ext/steady
    const std::string file = std::string(is_int ? "int" : "ext") + "-" +
                             (steady ? "steady" : "stress") + "-" +
                             (relative ? "rel" : "ref") + ".trace";

    sim::Testbed testbed(scenario.config);
    harness::TraceRecorder recorder(sim_session_config(scenario, w.warmup));
    constexpr std::size_t kChunk = 1024;
    sim::ExchangeBatch batch;
    sim::Exchange row;
    while (true) {
      std::size_t n = 0;
      {
        ScopedSpan span(kGenerate);
        n = testbed.generate_batch(batch, kChunk);
        span.set_items(n);
      }
      for (std::size_t i = 0; i < n; ++i) {
        batch.materialize(i, row);
        recorder.observe(row);
      }
      if (n < kChunk) break;
    }
    recorder.set_polls_enumerated(testbed.polls_enumerated());

    trace::TraceMeta meta;
    meta.mode = relative ? harness::GroundTruthMode::kRelativeOnly
                         : harness::GroundTruthMode::kReference;
    meta.nominal_period = testbed.nominal_period();
    meta.poll_period = scenario.config.poll_period;
    meta.label = scenario.name;
    const std::string path = (dir / file).string();
    {
      const ScopedSpan span(kTraceWrite, recorder.trace().exchanges);
      trace::write_trace(path, meta, recorder.trace());
    }
    stats.records += recorder.trace().exchanges;
    stats.bytes += std::filesystem::file_size(path);
  }
  return stats;
}

// -- Aggregation and output ---------------------------------------------------------

enum Pass : std::uint16_t { kPassW, kPassA, kPassB, kPassG, kPassCount };
constexpr const char* kPassNames[kPassCount] = {"W", "A", "B", "G"};

struct NameStats {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t items = 0;
  std::vector<std::int64_t> durations;
};

std::int64_t nearest_rank(const std::vector<std::int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

std::string aggregate_json() {
  std::map<std::pair<int, int>, NameStats> stats;
  for (const auto& log : g_logs) {
    std::vector<std::int64_t> children(log->spans.size(), 0);
    for (const Span& s : log->spans)
      if (s.parent != kNoParent) children[s.parent] += s.end_ns - s.start_ns;
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const Span& s = log->spans[i];
      NameStats& st = stats[{s.pass, s.name}];
      const std::int64_t dur = s.end_ns - s.start_ns;
      ++st.count;
      st.total_ns += dur;
      st.self_ns += dur - children[i];
      st.items += s.items;
      st.durations.push_back(dur);
    }
  }
  std::string out = "{";
  for (int pass = 0; pass < kPassCount; ++pass) {
    if (out.size() > 1) out += ",";
    out += strfmt("\"%s\":{", kPassNames[pass]);
    bool first = true;
    for (int name = 0; name < kNameCount; ++name) {
      auto it = stats.find({pass, name});
      if (it == stats.end()) continue;
      NameStats& st = it->second;
      std::sort(st.durations.begin(), st.durations.end());
      out += strfmt(
          "%s\"%s\":{\"count\":%llu,\"total_ns\":%lld,\"self_ns\":%lld,"
          "\"items\":%llu,\"p50_ns\":%lld,\"p99_ns\":%lld,\"max_ns\":%lld}",
          first ? "" : ",", kNames[name],
          static_cast<unsigned long long>(st.count),
          static_cast<long long>(st.total_ns),
          static_cast<long long>(st.self_ns),
          static_cast<unsigned long long>(st.items),
          static_cast<long long>(nearest_rank(st.durations, 0.5)),
          static_cast<long long>(nearest_rank(st.durations, 0.99)),
          static_cast<long long>(st.durations.back()));
      first = false;
    }
    out += "}";
  }
  return out + "}";
}

/// Raw span dump: a text header line naming the span kinds and passes, then
/// one packed little-endian record per span (u16 name, u16 pass, u32 parent,
/// i64 start_ns, i64 end_ns, u64 items), thread by thread.
void write_spans(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  out << "perfbench-spans 1 names=";
  for (int i = 0; i < kNameCount; ++i) out << (i ? "," : "") << kNames[i];
  out << " passes=W,A,B,G\n";
  for (const auto& log : g_logs) {
    for (const Span& s : log->spans) {
      char record[32];
      std::memcpy(record, &s.name, 2);
      std::memcpy(record + 2, &s.pass, 2);
      std::memcpy(record + 4, &s.parent, 4);
      std::memcpy(record + 8, &s.start_ns, 8);
      std::memcpy(record + 16, &s.end_ns, 8);
      std::memcpy(record + 24, &s.items, 8);
      out.write(record, sizeof record);
    }
  }
  if (!out) die("cannot write spans to " + path);
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) die("cannot write " + path);
}

int run_trace(const std::vector<std::string>& args) {
  std::string spans_out, report_out, cells_out, export_dir;
  double export_hours = 0;
  std::size_t i = 0;
  for (; i < args.size() && args[i] != "--"; ++i) {
    const std::string& arg = args[i];
    if (i + 1 >= args.size()) die("missing value for " + arg);
    const std::string& value = args[++i];
    if (arg == "--spans-out") spans_out = value;
    else if (arg == "--report-out") report_out = value;
    else if (arg == "--cells-out") cells_out = value;
    else if (arg == "--export-hours") export_hours = to_double(value);
    else if (arg == "--export-dir") export_dir = value;
    else die("unknown option " + arg);
  }
  if (spans_out.empty() || report_out.empty() || cells_out.empty() ||
      i == args.size())
    die("trace needs --spans-out, --report-out, --cells-out and -- FLAGS");
  const Workload w = parse_workload({args.begin() + i + 1, args.end()});
  const std::vector<sweep::SweepScenario> scenarios =
      sweep::expand_grid(w.grid);
  const std::size_t lanes = w.grid.estimators.size();

  std::string json = "{";
  if (export_hours > 0) {
    g_pass = kPassW;
    const ExportStats stats =
        export_traces(w.grid.master_seed, export_hours, export_dir);
    json += strfmt("\"export_records\":%llu,\"export_bytes\":%llu,",
                   static_cast<unsigned long long>(stats.records),
                   static_cast<unsigned long long>(stats.bytes));
  }

  g_pass = kPassA;
  std::int64_t start = now_ns();
  validate_reads(w);
  const auto untraced = run_cells(scenarios, w, [&](const auto& scenario) {
    const ScopedSpan span(kCell, 1);
    return sweep::run_scenario_multi(scenario, w.grid.estimators, w.warmup, {},
                                     w.streaming);
  });
  const std::int64_t wall_a = now_ns() - start;
  std::ostringstream report;
  {
    const ScopedSpan span(kReport, untraced.size());
    sweep::print_sweep_report(report, untraced);
  }
  write_text(report_out, report.str());
  std::string cells;
  for (const auto& r : untraced) cells += sweep::serialize_result(r) + "\n";
  write_text(cells_out, cells);

  g_pass = kPassB;
  g_read_bytes = 0;
  start = now_ns();
  validate_reads(w);
  const auto traced = run_cells(
      scenarios, w, [&](const auto& scenario) { return traced_cell(scenario, w); });
  const std::int64_t wall_b = now_ns() - start;

  bool consistent = traced.size() == untraced.size();
  for (std::size_t k = 0; consistent && k < traced.size(); ++k)
    consistent = sweep::serialize_result(traced[k]) ==
                 sweep::serialize_result(untraced[k]);

  g_pass = kPassG;
  start = now_ns();
  std::vector<sweep::SweepScenario> fleet_cells;
  for (const auto& s : scenarios)
    if (!s.is_trace() && !s.fleet.single()) fleet_cells.push_back(s);
  if (!fleet_cells.empty()) {
    run_cells(fleet_cells, w, [&](const auto& scenario) {
      constexpr std::size_t kChunk = 1024;  // FleetSession's drive chunk
      for (std::size_t e = 0; e < lanes; ++e) {
        sim::FleetTestbed fleet(scenario.config, scenario.fleet.config);
        sim::FleetBatch batch;
        while (true) {
          ScopedSpan span(kGenerate);
          const std::size_t n = fleet.generate_batch(batch, kChunk);
          span.set_items(n);
          if (n < kChunk) break;
        }
      }
      return std::vector<sweep::ScenarioResult>(lanes);
    });
  }
  const std::int64_t wall_g = fleet_cells.empty() ? 0 : now_ns() - start;

  std::size_t failed_cells = 0;
  for (const auto& r : untraced) failed_cells += r.failed ? 1 : 0;

  json += strfmt(
      "\"consistent\":%s,\"cells\":%zu,\"failed_cells\":%zu,\"threads\":%zu,"
      "\"wall_ns\":{\"A\":%lld,\"B\":%lld,\"G\":%lld},"
      "\"trace_read_bytes\":%llu,\"exact_retained_max_bytes\":%llu,",
      consistent ? "true" : "false", untraced.size(), failed_cells,
      std::min(sweep::ThreadPool::resolve_thread_count(w.threads),
               scenarios.size()),
      static_cast<long long>(wall_a), static_cast<long long>(wall_b),
      static_cast<long long>(wall_g),
      static_cast<unsigned long long>(g_read_bytes),
      static_cast<unsigned long long>(g_retained_max));
  json += "\"spans\":" + aggregate_json() + "}";
  write_spans(spans_out);
  std::printf("%s\n", json.c_str());
  return consistent ? 0 : 1;
}

int run_export(const std::vector<std::string>& args) {
  std::uint64_t seed = 0;
  double hours = 0;
  std::string dir;
  for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
    if (args[i] == "--seed") seed = std::strtoull(args[i + 1].c_str(), nullptr, 10);
    else if (args[i] == "--hours") hours = to_double(args[i + 1]);
    else if (args[i] == "--dir") dir = args[i + 1];
    else die("unknown option " + args[i]);
  }
  if (hours <= 0 || dir.empty()) die("export needs --seed, --hours and --dir");
  const ExportStats stats = export_traces(seed, hours, dir);
  std::printf("{\"records\":%llu,\"bytes\":%llu}\n",
              static_cast<unsigned long long>(stats.records),
              static_cast<unsigned long long>(stats.bytes));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) die("usage: perfbench_layers info|export|trace ...");
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    if (args[0] == "info") {
      std::printf("{\"compiler\":\"%s %s\",\"build_type\":\"%s\"}\n",
#if defined(__clang__)
                  "clang",
#else
                  "gcc",
#endif
                  __VERSION__, PERFBENCH_BUILD_TYPE);
      return 0;
    }
    if (args[0] == "export") return run_export(rest);
    if (args[0] == "trace") return run_trace(rest);
  } catch (const std::exception& e) {
    die(e.what());
  }
  die("unknown mode " + args[0]);
}
