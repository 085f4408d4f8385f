#include "trace/trace_io.hpp"

#include <array>
#include <cmath>

#include "common/line_reader.hpp"
#include "common/serialize.hpp"
#include "common/time_types.hpp"

namespace tscclock::trace {

namespace {

constexpr const char* kTraceMagic = "tscclock-trace";

/// Fields of one `x` record after the tag, per declared mode.
constexpr std::size_t kRelativeFields = 10;
constexpr std::size_t kReferenceFields = kRelativeFields + 3;

std::string mode_token(harness::GroundTruthMode mode) {
  return mode == harness::GroundTruthMode::kReference ? "reference"
                                                      : "relative";
}

std::string record_context(std::size_t index) {
  return "record " + std::to_string(index);
}

}  // namespace

// -- TraceWriter -------------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path, const TraceMeta& meta)
    : out_(path, std::ios::binary | std::ios::trunc),
      path_(path),
      meta_(meta) {
  if (!out_) {
    throw TraceIoError("cannot open trace " + path + " for writing");
  }
  if (!(meta.nominal_period > 0)) {
    throw TraceIoError("trace meta: nominal_period must be positive");
  }
  if (!(meta.poll_period > 0)) {
    throw TraceIoError("trace meta: poll_period must be positive");
  }
  out_.exceptions(std::ios::badbit | std::ios::failbit);
  out_ << kTraceMagic << ' ' << kTraceFormatVersion << '\n';
  out_ << "ground_truth " << mode_token(meta_.mode) << '\n';
  out_ << "nominal_period " << format_double_exact(meta_.nominal_period)
       << '\n';
  out_ << "poll_period " << format_double_exact(meta_.poll_period) << '\n';
  out_ << "client " << meta_.client_id << '\n';
  if (!meta_.label.empty()) {
    out_ << "label " << escape_field(meta_.label) << '\n';
  }
  out_ << "samples\n";
  out_.flush();
}

void TraceWriter::write(const harness::ReplaySample& sample) {
  if (closed_) throw TraceIoError("trace " + path_ + " already closed");
  const bool reference = meta_.mode == harness::GroundTruthMode::kReference;
  const bool ref = reference && sample.ref_available;
  ExactDoubleBuffer buffer;
  const auto tab_double = [&](double value) {
    out_ << '\t' << format_double_exact(value, buffer);
  };
  out_ << "x\t" << sample.index << '\t' << (sample.lost ? 1 : 0) << '\t'
       << (sample.in_warmup ? 1 : 0) << '\t'
       << (sample.server_changed ? 1 : 0) << '\t' << (ref ? 1 : 0) << '\t'
       << sample.raw.ta;
  tab_double(sample.raw.tb);
  tab_double(sample.raw.te);
  out_ << '\t' << sample.raw.tf << '\t' << sample.tf_counts_corrected;
  if (reference) {
    tab_double(sample.truth_ta);
    tab_double(sample.truth_tb);
    tab_double(sample.tg);
  }
  out_ << '\n';
  ++exchanges_;
  if (sample.lost) ++lost_;
}

void TraceWriter::flush() { out_.flush(); }

void TraceWriter::close(std::uint64_t polls_enumerated) {
  if (closed_) return;
  out_ << "end " << exchanges_ << ' ' << lost_ << ' ' << polls_enumerated
       << '\n';
  out_.close();
  closed_ = true;
}

void write_trace(const std::string& path, const TraceMeta& meta,
                 const harness::ReplayTrace& trace) {
  TraceWriter writer(path, meta);
  for (const auto& sample : trace.samples) writer.write(sample);
  writer.close(trace.polls_enumerated);
}

// -- read_trace --------------------------------------------------------------

namespace {

using RecordFields = std::array<std::string_view, kReferenceFields>;

/// Split a record body at its tabs into `fields` and return the field
/// count. Fields past the array's end are counted but not stored, so a
/// field-count error still names the true count.
std::size_t split_record(std::string_view body, RecordFields& fields) {
  std::size_t count = 0;
  for (;;) {
    const std::size_t tab = body.find('\t');
    if (count < fields.size()) fields[count] = body.substr(0, tab);
    ++count;
    if (tab == std::string_view::npos) return count;
    body.remove_prefix(tab + 1);
  }
}

double parse_positive(std::string_view text, const char* key,
                      const std::string& context) {
  double value = 0;
  try {
    value = parse_double_exact(text);
  } catch (const std::exception& e) {
    throw TraceIoError(context + ": malformed " + key + " '" +
                       std::string(text) + "': " + e.what());
  }
  if (!(value > 0)) {
    throw TraceIoError(context + ": " + key + " must be positive, got '" +
                       std::string(text) + "'");
  }
  return value;
}

}  // namespace

ReadTrace read_trace(const std::string& path) {
  const std::string context = "trace " + path;
  LineReader lines(path);
  if (!lines.is_open()) throw TraceIoError(context + ": cannot open");
  const auto check_readable = [&] {
    if (lines.failed()) {
      throw TraceIoError(context + ": cannot read (" + lines.error() + ")");
    }
  };
  std::string_view line;
  const auto next_line = [&] {
    if (!lines.next_line(line)) {
      check_readable();
      throw TraceIoError(context + (lines.torn()
                                        ? ": torn trailing line (the file "
                                          "ends mid-record)"
                                        : ": truncated (unexpected end of "
                                          "file)"));
    }
  };

  // Magic + version gate, naming both versions on skew.
  {
    const std::string expected_prefix = std::string(kTraceMagic) + " ";
    next_line();
    if (!line.starts_with(expected_prefix)) {
      throw TraceIoError(context + ": not a " + kTraceMagic +
                         " file (first line '" + std::string(line) + "')");
    }
    const std::string version(line.substr(expected_prefix.size()));
    if (version != std::to_string(kTraceFormatVersion)) {
      throw TraceIoError(context + ": format version " + version +
                         " is not supported by this build (expected version " +
                         std::to_string(kTraceFormatVersion) + ")");
    }
  }

  // Header block: key-value lines until the `samples` marker. Every key is
  // required once (label optional); unknown keys are refused, not skipped —
  // a trace from a future minor variant must fail loudly, not half-load.
  ReadTrace out;
  bool have_mode = false, have_nominal = false, have_poll = false,
       have_client = false;
  for (;;) {
    next_line();
    if (line == "samples") break;
    const std::size_t space = line.find(' ');
    if (space == std::string_view::npos || space == 0) {
      throw TraceIoError(context + ": malformed header line '" +
                         std::string(line) + "'");
    }
    const std::string key(line.substr(0, space));
    const std::string_view value = line.substr(space + 1);
    const auto require_fresh = [&](bool& have) {
      if (have) {
        throw TraceIoError(context + ": duplicate header key '" + key + "'");
      }
      have = true;
    };
    if (key == "ground_truth") {
      require_fresh(have_mode);
      if (value == "reference") {
        out.meta.mode = harness::GroundTruthMode::kReference;
      } else if (value == "relative") {
        out.meta.mode = harness::GroundTruthMode::kRelativeOnly;
      } else {
        throw TraceIoError(context + ": unknown ground_truth mode '" +
                           std::string(value) +
                           "' (expected 'reference' or 'relative')");
      }
    } else if (key == "nominal_period") {
      require_fresh(have_nominal);
      out.meta.nominal_period =
          parse_positive(value, "nominal_period", context);
    } else if (key == "poll_period") {
      require_fresh(have_poll);
      out.meta.poll_period = parse_positive(value, "poll_period", context);
    } else if (key == "client") {
      require_fresh(have_client);
      try {
        const std::uint64_t id = parse_u64_exact(value);
        if (id > 0xffffffffull) throw std::runtime_error("out of range");
        out.meta.client_id = static_cast<std::uint32_t>(id);
      } catch (const std::exception& e) {
        throw TraceIoError(context + ": malformed client id '" +
                           std::string(value) + "': " + e.what());
      }
    } else if (key == "label") {
      if (!out.meta.label.empty()) {
        throw TraceIoError(context + ": duplicate header key 'label'");
      }
      try {
        out.meta.label = unescape_field(value);
      } catch (const std::exception& e) {
        throw TraceIoError(context + ": malformed label: " + e.what());
      }
    } else {
      throw TraceIoError(context + ": unknown header key '" + key + "'");
    }
  }
  if (!have_mode) throw TraceIoError(context + ": missing ground_truth");
  if (!have_nominal) throw TraceIoError(context + ": missing nominal_period");
  if (!have_poll) throw TraceIoError(context + ": missing poll_period");
  if (!have_client) throw TraceIoError(context + ": missing client");

  const bool reference =
      out.meta.mode == harness::GroundTruthMode::kReference;
  const std::size_t expected_fields =
      reference ? kReferenceFields : kRelativeFields;
  harness::ReplayTrace& trace = out.trace;
  trace.ground_truth = out.meta.mode;

  // Sample records until the end marker. Nothing here allocates per record
  // unless it throws: the error context is built only on the throw paths.
  const auto rec = [&] {
    return context + ", " + record_context(trace.samples.size());
  };
  RecordFields fields;
  std::uint64_t end_exchanges = 0, end_lost = 0, end_polls = 0;
  bool prev_arrived = false;
  bool warned_tb_backwards = false;
  TscCount prev_ta = 0;
  Seconds prev_tb = 0;
  for (;;) {
    next_line();
    if (line.starts_with("end ")) {
      const auto end_fields = split_fields(line.substr(4), ' ');
      if (end_fields.size() != 3) {
        throw TraceIoError(context + ": malformed end marker '" +
                           std::string(line) + "'");
      }
      try {
        end_exchanges = parse_u64_exact(end_fields[0]);
        end_lost = parse_u64_exact(end_fields[1]);
        end_polls = parse_u64_exact(end_fields[2]);
      } catch (const std::exception& e) {
        throw TraceIoError(context + ": malformed end marker '" +
                           std::string(line) + "': " + e.what());
      }
      break;
    }
    if (!line.starts_with("x\t")) {
      throw TraceIoError(rec() + ": expected a sample record, got '" +
                         std::string(line) + "'");
    }
    const std::size_t field_count = split_record(line.substr(2), fields);
    if (field_count != expected_fields) {
      if (!reference && field_count == kReferenceFields) {
        throw TraceIoError(rec() + ": carries reference-mode truth fields "
                                   "in a relative-only trace");
      }
      if (reference && field_count == kRelativeFields) {
        throw TraceIoError(rec() + ": missing the truth fields a "
                                   "reference-mode trace declares");
      }
      throw TraceIoError(rec() + ": has " + std::to_string(field_count) +
                         " fields, expected " +
                         std::to_string(expected_fields));
    }
    harness::ReplaySample sample;
    try {
      std::size_t f = 0;
      const auto next_bool = [&]() {
        const std::string_view token = fields[f++];
        if (token == "0") return false;
        if (token == "1") return true;
        throw std::runtime_error("malformed bool field '" +
                                 std::string(token) + "'");
      };
      // A stamp or truth value must be finite: NaN or inf would pass every
      // ordering check below and only fail deep inside a scorer.
      const auto next_finite = [&](const char* name) {
        const std::string_view token = fields[f++];
        const double value = parse_double_exact(token);
        if (!std::isfinite(value)) {
          throw std::runtime_error(std::string("non-finite ") + name + " '" +
                                   std::string(token) + "'");
        }
        return value;
      };
      sample.index = parse_u64_exact(fields[f++]);
      sample.lost = next_bool();
      sample.in_warmup = next_bool();
      sample.server_changed = next_bool();
      sample.ref_available = next_bool();
      sample.raw.ta = parse_u64_exact(fields[f++]);
      sample.raw.tb = next_finite("tb");
      sample.raw.te = next_finite("te");
      sample.raw.tf = parse_u64_exact(fields[f++]);
      sample.tf_counts_corrected = parse_u64_exact(fields[f++]);
      if (reference) {
        sample.truth_ta = next_finite("truth_ta");
        sample.truth_tb = next_finite("truth_tb");
        sample.tg = next_finite("tg");
      }
    } catch (const std::exception& e) {
      throw TraceIoError(rec() + ": " + e.what());
    }
    if (!reference && sample.ref_available) {
      throw TraceIoError(rec() + ": declares a reference sample inside a "
                                 "relative-only trace");
    }
    sample.client_id = out.meta.client_id;
    if (!sample.lost) {
      sample.t_day = sample.raw.tb / duration::kDay;
      if (prev_arrived && sample.raw.ta <= prev_ta) {
        throw TraceIoError(rec() + ": send time Ta " +
                           std::to_string(sample.raw.ta) +
                           " is not after the previous arrival's " +
                           std::to_string(prev_ta) +
                           " (records out of order, or two interleaved "
                           "captures)");
      }
      if (prev_arrived && sample.raw.tb < prev_tb && !warned_tb_backwards) {
        // Warning, not error: a server stepping backwards is exactly the
        // kind of real-world artifact a trace exists to preserve.
        warned_tb_backwards = true;
        out.warnings.push_back(
            record_context(trace.samples.size()) +
            ": server receive stamp moves backwards (server step?)");
      }
      prev_arrived = true;
      prev_ta = sample.raw.ta;
      prev_tb = sample.raw.tb;
    } else {
      ++trace.lost;
    }
    ++trace.exchanges;
    trace.samples.push_back(sample);
  }

  // The end marker is the completeness witness: its counts must match what
  // was actually read (a truncated-then-reglued file fails here).
  if (end_exchanges != trace.exchanges || end_lost != trace.lost) {
    throw TraceIoError(
        context + ": end marker declares " + std::to_string(end_exchanges) +
        " exchanges / " + std::to_string(end_lost) + " lost, file holds " +
        std::to_string(trace.exchanges) + " / " + std::to_string(trace.lost));
  }
  if (end_polls < trace.exchanges) {
    throw TraceIoError(context + ": end marker declares " +
                       std::to_string(end_polls) +
                       " enumerated polls, fewer than the " +
                       std::to_string(trace.exchanges) + " records present");
  }
  trace.polls_enumerated = end_polls;
  if (lines.next_line(line)) {
    throw TraceIoError(context + ": content after the end marker ('" +
                       std::string(line) + "')");
  }
  check_readable();
  if (lines.torn()) {
    throw TraceIoError(context + ": torn trailing line after the end marker");
  }

  // Recoverable oddities, in record order where applicable.
  if (reference) {
    bool any_ref = false;
    for (const auto& sample : trace.samples) any_ref |= sample.ref_available;
    if (!trace.samples.empty() && !any_ref) {
      out.warnings.push_back(
          "declared reference-mode but no record carries a reference sample "
          "(re-export with ground_truth relative?)");
    }
  }
  if (trace.arrived() < 2) {
    out.warnings.push_back("only " + std::to_string(trace.arrived()) +
                           " arrived exchange(s): not scorable (replay "
                           "needs at least 2)");
  }
  return out;
}

}  // namespace tscclock::trace
