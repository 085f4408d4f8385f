// The fleet-scale sweep's artifact layer: cell serialization bit-identity,
// shard dump round-trips and validation, the golden merge property (an
// N-way shard split reassembles into the byte-identical single-process
// report and trace CSV), and the checkpoint resume contract (torn tails
// discarded, incompatible checkpoints refused, FAILED cells propagated,
// resumed output byte-identical, the committed-prefix offset byte-exact),
// and precise errors for unreadable paths.
#include "sweep/result_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"

namespace tscclock::sweep {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

/// A result exercising the serialization's hard cases: negative zero,
/// denormals, infinities, NaN, and strings carrying the record separators.
ScenarioResult gnarly_result() {
  ScenarioResult r;
  r.scenario_index = 7;
  r.name = "ServerInt/machine-room/poll16/steady";
  r.seed = 0xdeadbeefcafe1234ULL;
  r.server = sim::ServerKind::kExt;
  r.environment = sim::Environment::kLaboratory;
  r.estimator =
      harness::EstimatorSpec{"robust", {{"use_local_rate", "0"}}};
  r.failed = true;
  r.error = "tab\there\nnewline \\backslash\r";
  r.polls = 5400;
  r.skipped = 12;
  r.exchanges = 5388;
  r.lost = 54;
  r.evaluated = 5334;
  r.clock_error.count = 5334;
  r.clock_error.min = -0.0;
  r.clock_error.max = std::numeric_limits<double>::denorm_min();
  r.clock_error.mean = -1.23456789e-6;
  r.clock_error.stddev = std::numeric_limits<double>::infinity();
  r.clock_error.percentiles.p01 = -std::numeric_limits<double>::infinity();
  r.clock_error.percentiles.p25 = std::numeric_limits<double>::quiet_NaN();
  r.clock_error.percentiles.p50 = 0.1;  // not exactly representable
  r.clock_error.percentiles.p75 = 1e-300;
  r.clock_error.percentiles.p99 = std::numeric_limits<double>::max();
  r.offset_error = r.clock_error;
  r.adev_short_tau = 256.0;
  r.adev_short = 3.3e-8;
  r.adev_long_tau = 4096.0;
  r.adev_long = 0;
  r.steps = 3;
  r.final_status.packets_processed = 5388;
  r.final_status.upshifts = 2;
  r.final_status.warmed_up = true;
  r.final_status.period = 1.0000000123e-9;
  r.final_status.period_quality = 0.25;
  r.final_status.local_rate_usable = true;
  r.final_status.local_rate_residual = 5e-9;
  r.final_status.offset = -42.5e-6;
  r.final_status.min_rtt = 0.000831;
  r.clients = 16;
  r.fleet_dispersion = 7.25e-6;
  r.fleet_worst_p99 = -0.0;  // sign must round-trip like every double field
  r.fleet_pairwise_spread = 1.5e-305;
  return r;
}

/// Field-exact equality via the serialized form (doubles are hexfloat, so
/// this is bit-identity including -0.0; NaN serializes to the same token).
void expect_results_identical(const ScenarioResult& a,
                              const ScenarioResult& b) {
  EXPECT_EQ(serialize_result(a), serialize_result(b));
}

TEST(CellSerialization, RoundTripsGnarlyValuesExactly) {
  const ScenarioResult original = gnarly_result();
  const std::string line = serialize_result(original);
  // One line, no separators leaking out of escaped fields.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const ScenarioResult parsed = parse_result(line);
  EXPECT_EQ(serialize_result(parsed), line);
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_EQ(parsed.error, original.error);
  EXPECT_EQ(parsed.estimator.label(), "robust(use_local_rate=0)");
  EXPECT_TRUE(parsed.failed);
  EXPECT_EQ(parsed.seed, original.seed);
  EXPECT_TRUE(std::signbit(parsed.clock_error.min));
  EXPECT_TRUE(std::isnan(parsed.clock_error.percentiles.p25));
  EXPECT_EQ(parsed.clock_error.percentiles.p50, 0.1);
  EXPECT_EQ(parsed.final_status.period, original.final_status.period);
  EXPECT_EQ(parsed.clients, 16u);
  EXPECT_TRUE(std::signbit(parsed.fleet_worst_p99));
  EXPECT_EQ(parsed.fleet_pairwise_spread, original.fleet_pairwise_spread);
}

TEST(CellSerialization, RejectsTornAndReshapedRecords) {
  const std::string line = serialize_result(gnarly_result());
  // Every strict prefix is torn: wrong field count or a half field.
  EXPECT_THROW(parse_result(line.substr(0, line.size() / 2)), ResultIoError);
  EXPECT_THROW(parse_result(line.substr(0, line.rfind('\t'))), ResultIoError);
  EXPECT_THROW(parse_result(line + "\textra"), ResultIoError);
  EXPECT_THROW(parse_result(""), ResultIoError);
  // A corrupted numeric field is rejected, not misread.
  std::string corrupt = line;
  corrupt.replace(corrupt.find('\t'), 1, "x\t");
  EXPECT_THROW(parse_result(corrupt), ResultIoError);
}

TEST(RunHash, SensitiveToResultAffectingInputsOnly) {
  GridSpec grid;
  grid.duration = 0.2 * duration::kHour;
  const std::uint64_t base = sweep_run_hash(grid, 60.0, false);
  EXPECT_EQ(sweep_run_hash(grid, 60.0, false), base);

  GridSpec reseeded = grid;
  reseeded.master_seed = 43;
  EXPECT_NE(sweep_run_hash(reseeded, 60.0, false), base);

  GridSpec fewer = grid;
  fewer.poll_periods = {16.0};
  EXPECT_NE(sweep_run_hash(fewer, 60.0, false), base);

  GridSpec relabeled = grid;
  relabeled.estimators = {
      harness::EstimatorSpec{"robust", {{"use_local_rate", "0"}}}};
  EXPECT_NE(sweep_run_hash(relabeled, 60.0, false), base);

  EXPECT_NE(sweep_run_hash(grid, 120.0, false), base);
  EXPECT_NE(sweep_run_hash(grid, 60.0, true), base);

  // Schedule *contents* matter, not just the name.
  GridSpec scheduled = grid;
  scheduled.schedules[0].events.add_outage(100.0, 200.0);
  EXPECT_NE(sweep_run_hash(scheduled, 60.0, false), base);
}

// -- Shard dumps --------------------------------------------------------------

class DumpFixture : public ::testing::Test {
 protected:
  fs::path tmp_{::testing::TempDir()};

  ShardDumpHeader header(std::size_t index = 1, std::size_t count = 1) {
    ShardDumpHeader h;
    h.run_hash = 0x1234abcd5678ef00ULL;
    h.shard = ShardSpec{index, count};
    h.scenario_total = 2;
    h.duration = 720.0;
    h.master_seed = 42;
    h.estimator_labels = {"robust", "offline"};
    return h;
  }
};

TEST_F(DumpFixture, WriteReadRoundTrip) {
  const fs::path path = tmp_ / "round_trip.dump";
  std::vector<ScenarioResult> cells;
  for (std::size_t s = 0; s < 2; ++s) {
    for (const char* label : {"robust", "offline"}) {
      ScenarioResult r = gnarly_result();
      r.scenario_index = s;
      r.estimator = harness::EstimatorSpec{label, {}};
      cells.push_back(r);
    }
  }
  ShardDumpWriter writer(path.string(), header(), cells.size());
  writer.write_cells(cells);

  const ShardDump dump = read_shard_dump(path.string());
  EXPECT_EQ(dump.header, header());
  ASSERT_EQ(dump.results.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    expect_results_identical(dump.results[i], cells[i]);
  }
}

TEST_F(DumpFixture, HeaderIsWrittenBeforeCells) {
  // The fail-fast contract: the file exists (with its header) right after
  // construction, before any scenario has produced results.
  const fs::path path = tmp_ / "early_header.dump";
  ShardDumpWriter writer(path.string(), header(), 0);
  const std::string content = read_file(path);
  EXPECT_NE(content.find("tscclock-sweep-results 3"), std::string::npos);
  // ... but without cells + end marker it is refused as incomplete.
  EXPECT_THROW(read_shard_dump(path.string()), ResultIoError);
  writer.write_cells({});
  EXPECT_EQ(read_shard_dump(path.string()).results.size(), 0u);
}

TEST_F(DumpFixture, RejectsVersionSkewNamingBothVersions) {
  const fs::path path = tmp_ / "skew.dump";
  ShardDumpWriter writer(path.string(), header(), 0);
  writer.write_cells({});
  std::string content = read_file(path);
  const std::string old_line = "tscclock-sweep-results 3";
  content.replace(content.find(old_line), old_line.size(),
                  "tscclock-sweep-results 4");
  write_file(path, content);
  try {
    read_shard_dump(path.string());
    FAIL() << "expected ResultIoError";
  } catch (const ResultIoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 4"), std::string::npos) << what;
    EXPECT_NE(what.find("version 3"), std::string::npos) << what;
  }
}

TEST_F(DumpFixture, RejectsTruncatedDump) {
  const fs::path path = tmp_ / "truncated.dump";
  ScenarioResult r = gnarly_result();
  r.scenario_index = 0;
  r.estimator = harness::EstimatorSpec{"robust", {}};
  ScenarioResult r2 = r;
  r2.estimator = harness::EstimatorSpec{"offline", {}};
  ShardDumpWriter writer(path.string(), header(), 2);
  writer.write_cells(std::vector<ScenarioResult>{r, r2});
  const std::string content = read_file(path);
  // Drop the end marker; then also drop half a cell line.
  write_file(path, content.substr(0, content.size() - 4));
  EXPECT_THROW(read_shard_dump(path.string()), ResultIoError);
  write_file(path, content.substr(0, content.size() / 2));
  EXPECT_THROW(read_shard_dump(path.string()), ResultIoError);
}

TEST_F(DumpFixture, UnreadablePathsAreNamedAsSuch) {
  try {
    read_shard_dump((tmp_ / "does_not_exist.dump").string());
    FAIL() << "expected ResultIoError";
  } catch (const ResultIoError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos)
        << e.what();
  }
  // A directory opens but cannot be read: the error must say so instead of
  // calling the dump truncated.
  const fs::path dir = tmp_ / "a_directory.dump";
  fs::create_directories(dir);
  try {
    read_shard_dump(dir.string());
    FAIL() << "expected ResultIoError";
  } catch (const ResultIoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cannot read"), std::string::npos) << what;
    EXPECT_EQ(what.find("truncated"), std::string::npos) << what;
  }
  fs::remove(dir);
}

TEST_F(DumpFixture, MergeRejectsInconsistentSets) {
  // Build two valid shards of a 2-scenario, 2-lane run.
  std::vector<ShardDump> dumps(2);
  for (std::size_t i = 0; i < 2; ++i) {
    dumps[i].header = header(i + 1, 2);
    for (const char* label : {"robust", "offline"}) {
      ScenarioResult r = gnarly_result();
      r.scenario_index = i;  // shard 1 owns scenario 0, shard 2 scenario 1
      r.estimator = harness::EstimatorSpec{label, {}};
      dumps[i].results.push_back(r);
    }
  }
  // The consistent set merges.
  EXPECT_EQ(merge_shard_dumps(dumps).results.size(), 4u);

  // Missing shard.
  EXPECT_THROW(merge_shard_dumps({dumps[0]}), ResultIoError);
  // Duplicate shard index.
  EXPECT_THROW(merge_shard_dumps({dumps[0], dumps[0]}), ResultIoError);
  // Fingerprint skew.
  {
    auto skewed = dumps;
    skewed[1].header.run_hash ^= 1;
    EXPECT_THROW(merge_shard_dumps(skewed), ResultIoError);
  }
  // Disagreeing estimator axes despite equal fingerprints.
  {
    auto skewed = dumps;
    skewed[1].header.estimator_labels = {"robust", "naive"};
    EXPECT_THROW(merge_shard_dumps(skewed), ResultIoError);
  }
  // Wrong cell count for the shard's slice.
  {
    auto skewed = dumps;
    skewed[1].results.pop_back();
    EXPECT_THROW(merge_shard_dumps(skewed), ResultIoError);
  }
  // A cell claiming a scenario the shard does not own.
  {
    auto skewed = dumps;
    skewed[1].results[0].scenario_index = 0;
    EXPECT_THROW(merge_shard_dumps(skewed), ResultIoError);
  }
  EXPECT_THROW(merge_shard_dumps({}), ResultIoError);
}

// -- Golden merge + checkpoint resume over a real mixed grid ------------------

/// Small but real mixed online+replay grid: 6 scenarios (3 servers x 2
/// environments) x 2 lanes, 12 simulated minutes each — heavy enough that
/// cells have data, light enough for tier-1.
GridSpec golden_grid() {
  GridSpec grid;
  grid.poll_periods = {16.0};
  grid.duration = 0.2 * duration::kHour;
  grid.estimators = {harness::EstimatorSpec{"robust", {}},
                     harness::EstimatorSpec{"offline", {}}};
  return grid;
}

SweepOptions golden_options() {
  SweepOptions options;
  options.discard_warmup = 120.0;
  options.threads = 2;
  return options;
}

std::string report_text(const std::vector<ScenarioResult>& results) {
  std::ostringstream os;
  print_sweep_report(os, results);
  return os.str();
}

class GoldenFixture : public ::testing::Test {
 protected:
  fs::path tmp_{::testing::TempDir()};
};

TEST_F(GoldenFixture, ThreeShardSplitMergesByteIdentical) {
  const GridSpec grid = golden_grid();
  ScenarioSweep engine(grid);
  ASSERT_EQ(engine.scenarios().size(), 6u);

  // Single-process reference: report text + trace CSV bytes.
  SweepOptions single = golden_options();
  single.csv_path = (tmp_ / "golden_single.csv").string();
  const auto reference = engine.run(single);
  ASSERT_TRUE(engine.csv_error().empty()) << engine.csv_error();
  const std::string reference_report = report_text(reference);
  const std::string reference_csv = read_file(single.csv_path);

  // 3-shard split, each with a result dump and its own trace file.
  std::vector<ShardDump> dumps;
  std::vector<std::string> traces;
  for (std::size_t i = 1; i <= 3; ++i) {
    SweepOptions options = golden_options();
    options.shard = ShardSpec{i, 3};
    options.csv_path =
        (tmp_ / ("golden_shard" + std::to_string(i) + ".csv")).string();
    options.dump_path =
        (tmp_ / ("golden_shard" + std::to_string(i) + ".dump")).string();
    const auto shard_results = engine.run(options);
    ASSERT_TRUE(engine.csv_error().empty()) << engine.csv_error();
    ASSERT_TRUE(engine.dump_error().empty()) << engine.dump_error();
    EXPECT_EQ(shard_results.size(), 2u * 2u);  // 2 scenarios x 2 lanes
    dumps.push_back(read_shard_dump(options.dump_path));
    traces.push_back(options.csv_path);
  }

  const MergedSweep merged = merge_shard_dumps(dumps);
  ASSERT_EQ(merged.results.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_results_identical(merged.results[i], reference[i]);
  }
  // Byte-identical comparison tables and aggregates...
  EXPECT_EQ(report_text(merged.results), reference_report);
  // ... and byte-identical re-interleaved trace CSV.
  const fs::path merged_csv = tmp_ / "golden_merged.csv";
  merge_trace_csv(merged, dumps, traces, merged_csv.string());
  EXPECT_EQ(read_file(merged_csv), reference_csv);
}

TEST_F(GoldenFixture, ResumeAfterTruncatedCheckpointIsByteIdentical) {
  const GridSpec grid = golden_grid();
  ScenarioSweep engine(grid);

  // Uninterrupted checkpointed run: the reference artifacts.
  SweepOptions options = golden_options();
  options.threads = 1;  // grid-order completion → every scenario committed
  options.csv_path = (tmp_ / "resume.csv").string();
  options.checkpoint_path = (tmp_ / "resume.ck").string();
  fs::remove(options.checkpoint_path);  // TempDir() persists across runs
  const auto reference = engine.run(options);
  ASSERT_TRUE(engine.csv_error().empty()) << engine.csv_error();
  ASSERT_TRUE(engine.checkpoint_error().empty()) << engine.checkpoint_error();
  const std::string full_ck = read_file(options.checkpoint_path);
  const std::string full_csv = read_file(options.csv_path);

  // Simulate a kill mid-write: keep ~60% of the checkpoint, cutting inside
  // a record, and leave the CSV ahead of the surviving watermark (the
  // in-flight scenario's rows were already flushed when the run died).
  write_file(options.checkpoint_path, full_ck.substr(0, full_ck.size() * 3 / 5));

  const auto resumed = engine.run(options);
  ASSERT_TRUE(engine.csv_error().empty()) << engine.csv_error();
  ASSERT_TRUE(engine.checkpoint_error().empty()) << engine.checkpoint_error();
  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_results_identical(resumed[i], reference[i]);
  }
  EXPECT_EQ(report_text(resumed), report_text(reference));
  EXPECT_EQ(read_file(options.checkpoint_path), full_ck);
  EXPECT_EQ(read_file(options.csv_path), full_csv);
}

// -- Checkpoint validation ----------------------------------------------------

class CheckpointFixture : public ::testing::Test {
 protected:
  fs::path tmp_{::testing::TempDir()};
  GridSpec grid_ = golden_grid();
  ScenarioSweep engine_{grid_};
  SweepOptions options_ = golden_options();

  CheckpointFixture() {
    options_.threads = 1;
    options_.checkpoint_path = (tmp_ / "ck_fixture.ck").string();
    // TempDir() is one shared directory; never resume a previous test's file.
    fs::remove(options_.checkpoint_path);
  }

  CheckpointHeader expected_header(bool with_csv = false) {
    CheckpointHeader h;
    h.run_hash = sweep_run_hash(grid_, options_.discard_warmup,
                                options_.streaming_reduction);
    h.shard = options_.shard;
    h.with_csv = with_csv;
    return h;
  }

  std::vector<std::string> labels() {
    return {"robust", "offline"};
  }
};

TEST_F(CheckpointFixture, TornTrailingRecordIsDiscardedAndRecomputed) {
  const auto reference = engine_.run(options_);
  const std::string full = read_file(options_.checkpoint_path);

  // Cut inside the final scenario's records: the loader must keep the
  // longest valid committed prefix and flag the discarded tail.
  const std::string torn = full.substr(0, full.size() - full.size() / 6);
  write_file(options_.checkpoint_path, torn);
  const std::vector<std::string> lanes = labels();
  const CheckpointLoad load =
      load_checkpoint(options_.checkpoint_path, expected_header(),
                      engine_.scenarios(), lanes);
  EXPECT_TRUE(load.discarded_tail);
  EXPECT_LT(load.committed_scenarios, engine_.scenarios().size());
  EXPECT_EQ(load.results.size(), load.committed_scenarios * lanes.size());
  EXPECT_LE(load.valid_bytes, torn.size());
  // The committed prefix carries the exact reference cells.
  for (std::size_t i = 0; i < load.results.size(); ++i) {
    expect_results_identical(load.results[i], reference[i]);
  }

  // Resuming recomputes the discarded cell(s) to the identical bytes.
  static_cast<void>(engine_.run(options_));
  EXPECT_EQ(read_file(options_.checkpoint_path), full);
}

TEST_F(CheckpointFixture, CorruptedMidFileRecordEndsTheCommittedPrefix) {
  static_cast<void>(engine_.run(options_));
  std::string content = read_file(options_.checkpoint_path);
  // Flip a digit inside the *first* done record's scenario index: every
  // later record is unreachable (corruption is never skipped over).
  const std::size_t done = content.find("done\t");
  ASSERT_NE(done, std::string::npos);
  content[done + 5] = '9';
  write_file(options_.checkpoint_path, content);
  const std::vector<std::string> lanes = labels();
  const CheckpointLoad load =
      load_checkpoint(options_.checkpoint_path, expected_header(),
                      engine_.scenarios(), lanes);
  EXPECT_EQ(load.committed_scenarios, 0u);
  EXPECT_TRUE(load.discarded_tail);
}

TEST_F(CheckpointFixture, CommittedPrefixOffsetIsByteExact) {
  static_cast<void>(engine_.run(options_));  // writes the checkpoint
  const std::string full = read_file(options_.checkpoint_path);
  const std::vector<std::string> lanes = labels();
  const auto load = [&](const std::string& content) {
    write_file(options_.checkpoint_path, content);
    return load_checkpoint(options_.checkpoint_path, expected_header(),
                           engine_.scenarios(), lanes);
  };

  // The untouched file: everything committed, nothing discarded.
  CheckpointLoad whole = load(full);
  EXPECT_EQ(whole.committed_scenarios, engine_.scenarios().size());
  EXPECT_EQ(whole.valid_bytes, full.size());
  EXPECT_FALSE(whole.discarded_tail);

  // Cut exactly after the first done record: a clean one-scenario prefix.
  const std::size_t first_done_end =
      full.find('\n', full.find("done\t")) + 1;
  CheckpointLoad clean = load(full.substr(0, first_done_end));
  EXPECT_EQ(clean.committed_scenarios, 1u);
  EXPECT_EQ(clean.valid_bytes, first_done_end);
  EXPECT_FALSE(clean.discarded_tail);

  // One byte of the next record: the same prefix, plus a torn tail.
  CheckpointLoad torn = load(full.substr(0, first_done_end + 1));
  EXPECT_EQ(torn.committed_scenarios, 1u);
  EXPECT_EQ(torn.valid_bytes, first_done_end);
  EXPECT_TRUE(torn.discarded_tail);

  // A complete line after the last owned scenario is a discarded tail too.
  CheckpointLoad trailing = load(full + "junk\n");
  EXPECT_EQ(trailing.committed_scenarios, engine_.scenarios().size());
  EXPECT_EQ(trailing.valid_bytes, full.size());
  EXPECT_TRUE(trailing.discarded_tail);
}

TEST_F(CheckpointFixture, UnreadableCheckpointIsAPreciseUsageError) {
  const fs::path dir = tmp_ / "a_directory.ck";
  fs::create_directories(dir);
  try {
    load_checkpoint(dir.string(), expected_header(), engine_.scenarios(),
                    labels());
    FAIL() << "expected SweepUsageError";
  } catch (const SweepUsageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cannot read"), std::string::npos) << what;
    EXPECT_EQ(what.find("truncated"), std::string::npos) << what;
  }
  fs::remove(dir);
}

TEST_F(CheckpointFixture, FingerprintMismatchIsAPreciseUsageError) {
  static_cast<void>(engine_.run(options_));
  CheckpointHeader other = expected_header();
  other.run_hash ^= 0xff;
  try {
    load_checkpoint(options_.checkpoint_path, other, engine_.scenarios(),
                    labels());
    FAIL() << "expected SweepUsageError";
  } catch (const SweepUsageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("different sweep invocation"), std::string::npos)
        << what;
    EXPECT_NE(what.find("fingerprint"), std::string::npos) << what;
  }
}

TEST_F(CheckpointFixture, ShardAndCsvMismatchesAreUsageErrors) {
  static_cast<void>(engine_.run(options_));
  CheckpointHeader wrong_shard = expected_header();
  wrong_shard.shard = ShardSpec{2, 3};
  EXPECT_THROW(load_checkpoint(options_.checkpoint_path, wrong_shard,
                               engine_.scenarios(), labels()),
               SweepUsageError);
  EXPECT_THROW(load_checkpoint(options_.checkpoint_path,
                               expected_header(/*with_csv=*/true),
                               engine_.scenarios(), labels()),
               SweepUsageError);
}

TEST_F(CheckpointFixture, RunRefusesIncompatibleCheckpointBeforeAnyWork) {
  static_cast<void>(engine_.run(options_));
  // Same checkpoint file, different master seed: the resume must be
  // refused as a usage error before any scenario runs.
  GridSpec reseeded = grid_;
  reseeded.master_seed = 43;
  ScenarioSweep other(reseeded);
  EXPECT_THROW(other.run(options_), SweepUsageError);
}

TEST_F(CheckpointFixture, FailedCellInCheckpointPropagatesOnResume) {
  // Hand-write a checkpoint whose first committed scenario FAILED, then
  // resume: the loaded FAILED cell must flow into the results (and from
  // there into the CLI's non-zero exit), not be silently dropped.
  const auto& scenario = engine_.scenarios().front();
  std::vector<ScenarioResult> cells;
  for (const char* label : {"robust", "offline"}) {
    ScenarioResult r;
    r.scenario_index = scenario.index;
    r.name = scenario.name;
    r.seed = scenario.config.seed;
    r.server = scenario.config.server;
    r.environment = scenario.config.environment;
    r.estimator = harness::EstimatorSpec{label, {}};
    r.failed = true;
    r.error = "injected failure";
    cells.push_back(r);
  }
  {
    CheckpointWriter writer(options_.checkpoint_path, expected_header());
    writer.record_scenario(cells, scenario.index, 0);
    writer.close();
  }
  const auto results = engine_.run(options_);
  ASSERT_EQ(results.size(), engine_.scenarios().size() * 2);
  EXPECT_TRUE(results[0].failed);
  EXPECT_EQ(results[0].error, "injected failure");
  EXPECT_TRUE(results[1].failed);
  // The rest of the grid still ran.
  EXPECT_FALSE(results[2].failed);
}

}  // namespace
}  // namespace tscclock::sweep
