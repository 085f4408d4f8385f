// The trace file format (trace/trace_io.hpp): bit-identical round trips
// through the finite hexfloat edge cases (−0.0, denormals, the extreme
// doubles), the refusal of non-finite stamps, the per-mode field-count
// contract, torn tails and version skew, end-marker completeness
// witnessing, unreadable paths, the reader's line semantics, and the
// warning (exit-1) taxonomy.
#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/time_types.hpp"

namespace tscclock::trace {
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

fs::path temp_path(const std::string& name) {
  return fs::temp_directory_path() / ("tscclock_trace_io_" + name);
}

/// Bitwise double equality: the round-trip contract is representation
/// identity, which operator== cannot express for NaN or −0.0.
bool same_bits(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

TraceMeta reference_meta() {
  TraceMeta meta;
  meta.mode = harness::GroundTruthMode::kReference;
  meta.nominal_period = 1.000000013e-9;
  meta.poll_period = 16.0;
  meta.client_id = 3;
  meta.label = "gnarly \t tab \n newline \\ backslash";
  return meta;
}

harness::ReplaySample make_sample(std::size_t index, TscCount ta,
                                  Seconds tb) {
  harness::ReplaySample s;
  s.index = index;
  s.client_id = 3;
  s.raw = {ta, tb, tb + 1e-3, ta + 1000};
  s.tf_counts_corrected = ta + 990;
  s.t_day = tb / duration::kDay;
  s.ref_available = true;
  s.tg = tb + 2e-3;
  s.truth_ta = tb - 5e-4;
  s.truth_tb = tb + 1e-6;
  return s;
}

/// A reference trace exercising the serialization's hard finite cases in
/// the unconstrained double columns (te, tg, truth_ta, truth_tb) while
/// Ta/Tb stay monotone so the file reads back warning-free. (Non-finite
/// values are refused on read; RefusesNonFiniteStamps pins that.)
harness::ReplayTrace gnarly_trace() {
  harness::ReplayTrace trace;
  trace.ground_truth = harness::GroundTruthMode::kReference;
  const double gnarly[] = {-0.0, std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::lowest(),
                           -std::numeric_limits<double>::min(), 0.1};
  for (std::size_t i = 0; i < 6; ++i) {
    harness::ReplaySample s = make_sample(i, 1000 + 100 * i, 16.0 * (i + 1));
    s.tg = gnarly[i];
    s.truth_ta = gnarly[(i + 1) % 6];
    s.truth_tb = gnarly[(i + 2) % 6];
    s.raw.te = gnarly[(i + 3) % 6];
    trace.samples.push_back(s);
  }
  // A lost record mid-stream: no observables, flags only.
  harness::ReplaySample lost;
  lost.index = 6;
  lost.client_id = 3;
  lost.lost = true;
  lost.truth_ta = 100.5;  // filled for lost polls too
  trace.samples.push_back(lost);
  harness::ReplaySample last = make_sample(7, 1700, 128.0);
  last.in_warmup = true;
  last.server_changed = true;
  trace.samples.push_back(last);
  trace.exchanges = trace.samples.size();
  trace.lost = 1;
  trace.polls_enumerated = 10;  // three outage-skipped slots
  return trace;
}

void expect_sample_bits(const harness::ReplaySample& got,
                        const harness::ReplaySample& want) {
  EXPECT_EQ(got.index, want.index);
  EXPECT_EQ(got.lost, want.lost);
  EXPECT_EQ(got.client_id, want.client_id);
  EXPECT_EQ(got.in_warmup, want.in_warmup);
  EXPECT_EQ(got.server_changed, want.server_changed);
  EXPECT_EQ(got.ref_available, want.ref_available);
  EXPECT_EQ(got.raw.ta, want.raw.ta);
  EXPECT_TRUE(same_bits(got.raw.tb, want.raw.tb));
  EXPECT_TRUE(same_bits(got.raw.te, want.raw.te));
  EXPECT_EQ(got.raw.tf, want.raw.tf);
  EXPECT_EQ(got.tf_counts_corrected, want.tf_counts_corrected);
  EXPECT_TRUE(same_bits(got.tg, want.tg));
  EXPECT_TRUE(same_bits(got.truth_ta, want.truth_ta));
  EXPECT_TRUE(same_bits(got.truth_tb, want.truth_tb));
}

std::string read_error(const fs::path& path) {
  try {
    read_trace(path.string());
  } catch (const TraceIoError& e) {
    return e.what();
  }
  return {};
}

// -- Round trips -------------------------------------------------------------

TEST(TraceIo, ReferenceRoundTripIsBitIdentical) {
  const auto path = temp_path("ref_roundtrip.trace");
  const TraceMeta meta = reference_meta();
  const harness::ReplayTrace trace = gnarly_trace();
  write_trace(path.string(), meta, trace);

  const ReadTrace loaded = read_trace(path.string());
  EXPECT_TRUE(loaded.warnings.empty()) << loaded.warnings.front();
  EXPECT_EQ(loaded.meta.mode, harness::GroundTruthMode::kReference);
  EXPECT_TRUE(same_bits(loaded.meta.nominal_period, meta.nominal_period));
  EXPECT_TRUE(same_bits(loaded.meta.poll_period, meta.poll_period));
  EXPECT_EQ(loaded.meta.client_id, meta.client_id);
  EXPECT_EQ(loaded.meta.label, meta.label);
  EXPECT_EQ(loaded.trace.ground_truth, harness::GroundTruthMode::kReference);
  EXPECT_EQ(loaded.trace.exchanges, trace.exchanges);
  EXPECT_EQ(loaded.trace.lost, trace.lost);
  EXPECT_EQ(loaded.trace.polls_enumerated, trace.polls_enumerated);
  ASSERT_EQ(loaded.trace.samples.size(), trace.samples.size());
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    SCOPED_TRACE(i);
    expect_sample_bits(loaded.trace.samples[i], trace.samples[i]);
    if (!trace.samples[i].lost) {
      // t_day is derived, not stored: recomputed exactly from tb.
      EXPECT_TRUE(same_bits(loaded.trace.samples[i].t_day,
                            trace.samples[i].raw.tb / duration::kDay));
    }
  }

  // Serialization is canonical: re-writing the loaded trace reproduces the
  // file byte for byte.
  const auto path2 = temp_path("ref_roundtrip2.trace");
  write_trace(path2.string(), loaded.meta, loaded.trace);
  EXPECT_EQ(read_file(path), read_file(path2));
  fs::remove(path);
  fs::remove(path2);
}

TEST(TraceIo, RelativeWriterStripsGroundTruth) {
  const auto path = temp_path("relative.trace");
  TraceMeta meta = reference_meta();
  meta.mode = harness::GroundTruthMode::kRelativeOnly;
  meta.label.clear();
  // Exporting reference-bearing samples through a relative writer is the
  // "what would the field see" path: truth columns dropped, ref forced 0.
  write_trace(path.string(), meta, gnarly_trace());

  const ReadTrace loaded = read_trace(path.string());
  EXPECT_TRUE(loaded.warnings.empty());
  EXPECT_EQ(loaded.meta.mode, harness::GroundTruthMode::kRelativeOnly);
  EXPECT_EQ(loaded.meta.label, "");
  EXPECT_EQ(loaded.trace.ground_truth,
            harness::GroundTruthMode::kRelativeOnly);
  for (const auto& sample : loaded.trace.samples) {
    EXPECT_FALSE(sample.ref_available);
    EXPECT_TRUE(same_bits(sample.tg, 0.0));
    EXPECT_TRUE(same_bits(sample.truth_tb, 0.0));
    EXPECT_EQ(sample.client_id, meta.client_id);
  }
  fs::remove(path);
}

TEST(TraceIo, StreamingWriterMatchesOneShotExport) {
  const auto one_shot = temp_path("oneshot.trace");
  const auto streamed = temp_path("streamed.trace");
  const TraceMeta meta = reference_meta();
  const harness::ReplayTrace trace = gnarly_trace();
  write_trace(one_shot.string(), meta, trace);
  {
    TraceWriter writer(streamed.string(), meta);
    for (const auto& sample : trace.samples) writer.write(sample);
    EXPECT_EQ(writer.exchanges(), trace.exchanges);
    EXPECT_EQ(writer.lost(), trace.lost);
    writer.close(trace.polls_enumerated);
  }
  EXPECT_EQ(read_file(one_shot), read_file(streamed));
  fs::remove(one_shot);
  fs::remove(streamed);
}

// -- Structural validation ---------------------------------------------------

/// One canonical small file as mutation base.
std::string canonical_file() {
  const auto path = temp_path("canonical.trace");
  TraceMeta meta = reference_meta();
  meta.label.clear();
  harness::ReplayTrace trace;
  trace.ground_truth = harness::GroundTruthMode::kReference;
  for (std::size_t i = 0; i < 4; ++i)
    trace.samples.push_back(make_sample(i, 1000 + 100 * i, 16.0 * (i + 1)));
  trace.exchanges = 4;
  trace.polls_enumerated = 4;
  write_trace(path.string(), meta, trace);
  const std::string content = read_file(path);
  fs::remove(path);
  return content;
}

std::string mutated_error(const std::string& content, const char* name) {
  const auto path = temp_path(std::string("mut_") + name + ".trace");
  write_file(path, content);
  const std::string what = read_error(path);
  fs::remove(path);
  return what;
}

TEST(TraceIo, RefusesNonTraceFile) {
  const std::string what = mutated_error("not a trace\n", "garbage");
  EXPECT_NE(what.find("not a tscclock-trace file"), std::string::npos)
      << what;
}

TEST(TraceIo, VersionSkewNamesBothVersions) {
  std::string content = canonical_file();
  content.replace(content.find("tscclock-trace 1"),
                  std::strlen("tscclock-trace 1"), "tscclock-trace 2");
  const std::string what = mutated_error(content, "skew");
  EXPECT_NE(what.find("version 2"), std::string::npos) << what;
  EXPECT_NE(what.find("expected version 1"), std::string::npos) << what;
}

TEST(TraceIo, RefusesTornTail) {
  const std::string content = canonical_file();
  // Cut mid final record: no trailing newline → kill-mid-write signature.
  const std::string torn = content.substr(0, content.size() - 15);
  const std::string what = mutated_error(torn, "torn");
  EXPECT_NE(what.find("torn trailing line"), std::string::npos) << what;
}

TEST(TraceIo, RefusesMissingEndMarker) {
  std::string content = canonical_file();
  content.erase(content.rfind("end "));
  const std::string what = mutated_error(content, "noend");
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
}

TEST(TraceIo, RefusesEndCountMismatch) {
  std::string content = canonical_file();
  content.replace(content.rfind("end 4 0 4"), 9, "end 3 0 4");
  const std::string what = mutated_error(content, "endcount");
  EXPECT_NE(what.find("end marker declares 3"), std::string::npos) << what;
}

TEST(TraceIo, RefusesEndPollsBelowExchanges) {
  std::string content = canonical_file();
  content.replace(content.rfind("end 4 0 4"), 9, "end 4 0 2");
  const std::string what = mutated_error(content, "endpolls");
  EXPECT_NE(what.find("fewer than"), std::string::npos) << what;
}

TEST(TraceIo, RefusesContentAfterEndMarker) {
  const std::string what = mutated_error(canonical_file() + "trailing\n",
                                         "afterend");
  EXPECT_NE(what.find("content after the end marker"), std::string::npos)
      << what;
}

TEST(TraceIo, RefusesDuplicateAndUnknownAndMissingHeaderKeys) {
  std::string content = canonical_file();
  EXPECT_NE(mutated_error("tscclock-trace 1\nclient 1\nclient 2\n" +
                              content.substr(content.find("samples")),
                          "duphdr")
                .find("duplicate header key"),
            std::string::npos);
  const std::size_t samples_at = content.find("samples");
  EXPECT_NE(mutated_error(content.substr(0, samples_at) + "frobnicate 1\n" +
                              content.substr(samples_at),
                          "unkhdr")
                .find("unknown header key 'frobnicate'"),
            std::string::npos);
  const std::size_t client_at = content.find("client ");
  std::string missing = content;
  missing.erase(client_at, content.find('\n', client_at) + 1 - client_at);
  EXPECT_NE(mutated_error(missing, "misshdr").find("missing client"),
            std::string::npos);
}

TEST(TraceIo, RefusesUnknownGroundTruthMode) {
  std::string content = canonical_file();
  content.replace(content.find("ground_truth reference"),
                  std::strlen("ground_truth reference"),
                  "ground_truth absolute");
  const std::string what = mutated_error(content, "badmode");
  EXPECT_NE(what.find("unknown ground_truth mode 'absolute'"),
            std::string::npos)
      << what;
}

TEST(TraceIo, FieldCountErrorsNameTheModeMismatch) {
  // Reference record inside a relative-only declaration.
  std::string content = canonical_file();
  content.replace(content.find("ground_truth reference"),
                  std::strlen("ground_truth reference"),
                  "ground_truth relative");
  const std::string what = mutated_error(content, "refinrel");
  EXPECT_NE(what.find("record 0"), std::string::npos) << what;
  EXPECT_NE(what.find("reference-mode truth fields in a relative-only"),
            std::string::npos)
      << what;

  // Relative record inside a reference declaration: strip one record's
  // truth fields (drop the last three tab-separated fields).
  std::string stripped = canonical_file();
  const std::size_t rec = stripped.find("x\t");
  std::size_t eol = stripped.find('\n', rec);
  std::string record = stripped.substr(rec, eol - rec);
  for (int i = 0; i < 3; ++i) record.erase(record.rfind('\t'));
  stripped.replace(rec, eol - rec, record);
  const std::string what2 = mutated_error(stripped, "relinref");
  EXPECT_NE(what2.find("missing the truth fields"), std::string::npos)
      << what2;
}

TEST(TraceIo, RefusesNonMonotoneSendTimes) {
  const auto path = temp_path("nonmono.trace");
  TraceMeta meta = reference_meta();
  harness::ReplayTrace trace;
  trace.ground_truth = harness::GroundTruthMode::kReference;
  trace.samples.push_back(make_sample(0, 2000, 16.0));
  trace.samples.push_back(make_sample(1, 1500, 32.0));  // Ta goes backwards
  trace.exchanges = 2;
  trace.polls_enumerated = 2;
  write_trace(path.string(), meta, trace);
  const std::string what = read_error(path);
  EXPECT_NE(what.find("record 1"), std::string::npos) << what;
  EXPECT_NE(what.find("1500"), std::string::npos) << what;
  EXPECT_NE(what.find("2000"), std::string::npos) << what;
  fs::remove(path);
}

TEST(TraceIo, RefusesNonFiniteStamps) {
  // Each column that carries a stamp or a truth value, poisoned in record 2
  // of the canonical file (fields after the "x" tag: 6 tb, 7 te, 10-12
  // truth_ta, truth_tb, tg).
  const struct {
    std::size_t field;
    const char* value;
    const char* name;
  } cases[] = {{6, "nan", "tb"},        {7, "inf", "te"},
               {7, "-inf", "te"},       {10, "nan", "truth_ta"},
               {11, "-nan", "truth_tb"}, {12, "inf", "tg"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    std::string content = canonical_file();
    std::size_t rec = content.find("x\t");
    for (int i = 0; i < 2; ++i) rec = content.find("x\t", rec + 1);
    std::size_t begin = rec + 2;
    for (std::size_t f = 0; f < c.field; ++f) {
      begin = content.find('\t', begin) + 1;
    }
    const std::size_t end = content.find_first_of("\t\n", begin);
    content.replace(begin, end - begin, c.value);
    const std::string what = mutated_error(content, "nonfinite");
    EXPECT_NE(what.find("record 2: non-finite " + std::string(c.name) +
                        " '" + c.value + "'"),
              std::string::npos)
        << what;
  }
}

TEST(TraceIo, RefusesUnreadablePaths) {
  const std::string missing = read_error(temp_path("does_not_exist.trace"));
  EXPECT_NE(missing.find("cannot open"), std::string::npos) << missing;

  // A directory opens but cannot be read: that must say so, not claim the
  // file ended early.
  const auto dir = temp_path("a_directory.trace");
  fs::create_directories(dir);
  const std::string what = read_error(dir);
  EXPECT_NE(what.find("cannot read"), std::string::npos) << what;
  EXPECT_EQ(what.find("truncated"), std::string::npos) << what;
  fs::remove(dir);
}

// -- Line semantics ----------------------------------------------------------

TEST(TraceIo, EmptyFileIsTruncated) {
  const std::string what = mutated_error("", "empty");
  EXPECT_NE(what.find("truncated (unexpected end of file)"),
            std::string::npos)
      << what;
}

TEST(TraceIo, CrlfLineEndingsAreRefused) {
  // Lines end at '\n' only; a CR is content, so a CRLF file fails the
  // version gate on its first line instead of half-loading.
  std::string content = canonical_file();
  for (std::size_t at = content.find('\n'); at != std::string::npos;
       at = content.find('\n', at + 2)) {
    content.insert(at, "\r");
  }
  const std::string what = mutated_error(content, "crlf");
  EXPECT_NE(what.find("format version 1\r is not supported"),
            std::string::npos)
      << what;
}

TEST(TraceIo, NoFinalNewlineIsATornTail) {
  // Only the end marker's newline is missing: the line is complete text but
  // not a complete line, so it is refused as torn, never trusted.
  std::string content = canonical_file();
  content.pop_back();
  const std::string what = mutated_error(content, "nofinalnl");
  EXPECT_NE(what.find("torn trailing line (the file ends mid-record)"),
            std::string::npos)
      << what;
}

TEST(TraceIo, HeaderWithoutSamples) {
  std::string content = canonical_file();
  content.erase(content.find("samples\n") + std::strlen("samples\n"));
  // Header only: no end marker, so the file is incomplete.
  const std::string what = mutated_error(content, "headeronly");
  EXPECT_NE(what.find("truncated (unexpected end of file)"),
            std::string::npos)
      << what;

  // Header plus an end marker over zero records: valid, but unscorable.
  const auto path = temp_path("zero_samples.trace");
  write_file(path, content + "end 0 0 0\n");
  const ReadTrace loaded = read_trace(path.string());
  EXPECT_TRUE(loaded.trace.samples.empty());
  EXPECT_EQ(loaded.trace.exchanges, 0u);
  ASSERT_EQ(loaded.warnings.size(), 1u);
  EXPECT_NE(loaded.warnings[0].find("only 0 arrived"), std::string::npos)
      << loaded.warnings[0];
  fs::remove(path);
}

TEST(TraceIo, LongTraceStreamsAcrossReadChunks) {
  // Enough records that the file spans many of the reader's read chunks,
  // so records straddle chunk boundaries; the round trip must stay exact.
  const auto path = temp_path("long.trace");
  TraceMeta meta = reference_meta();
  harness::ReplayTrace trace;
  trace.ground_truth = harness::GroundTruthMode::kReference;
  for (std::size_t i = 0; i < 5000; ++i) {
    trace.samples.push_back(
        make_sample(i, 1000 + 100 * i, 16.0 * (i + 1) + 1.0 / (i + 3)));
  }
  trace.exchanges = trace.samples.size();
  trace.polls_enumerated = trace.samples.size();
  write_trace(path.string(), meta, trace);
  ASSERT_GT(fs::file_size(path), 4u * 64 * 1024);
  const ReadTrace loaded = read_trace(path.string());
  ASSERT_EQ(loaded.trace.samples.size(), trace.samples.size());
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    SCOPED_TRACE(i);
    expect_sample_bits(loaded.trace.samples[i], trace.samples[i]);
  }
  fs::remove(path);
}

// -- Warnings (the trace-import exit-1 taxonomy) -----------------------------

TEST(TraceIo, WarnsOnceOnBackwardsServerStamps) {
  const auto path = temp_path("tbback.trace");
  TraceMeta meta = reference_meta();
  harness::ReplayTrace trace;
  trace.ground_truth = harness::GroundTruthMode::kReference;
  trace.samples.push_back(make_sample(0, 1000, 64.0));
  trace.samples.push_back(make_sample(1, 1100, 32.0));  // server steps back
  trace.samples.push_back(make_sample(2, 1200, 16.0));  // ...and again
  trace.exchanges = 3;
  trace.polls_enumerated = 3;
  write_trace(path.string(), meta, trace);
  const ReadTrace loaded = read_trace(path.string());
  ASSERT_EQ(loaded.warnings.size(), 1u) << "deduplicated to one warning";
  EXPECT_NE(loaded.warnings[0].find("record 1"), std::string::npos);
  EXPECT_NE(loaded.warnings[0].find("backwards"), std::string::npos);
  fs::remove(path);
}

TEST(TraceIo, WarnsOnUnscorableLengthAndZeroReferenceCoverage) {
  const auto path = temp_path("warnings.trace");
  TraceMeta meta = reference_meta();
  harness::ReplayTrace trace;
  trace.ground_truth = harness::GroundTruthMode::kReference;
  harness::ReplaySample only = make_sample(0, 1000, 16.0);
  only.ref_available = false;  // declared reference, no truth anywhere
  trace.samples.push_back(only);
  trace.exchanges = 1;
  trace.polls_enumerated = 1;
  write_trace(path.string(), meta, trace);
  const ReadTrace loaded = read_trace(path.string());
  ASSERT_EQ(loaded.warnings.size(), 2u);
  EXPECT_NE(loaded.warnings[0].find("no record carries a reference sample"),
            std::string::npos)
      << loaded.warnings[0];
  EXPECT_NE(loaded.warnings[1].find("not scorable"), std::string::npos)
      << loaded.warnings[1];
  fs::remove(path);
}

}  // namespace
}  // namespace tscclock::trace
