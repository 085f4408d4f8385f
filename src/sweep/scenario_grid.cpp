#include "sweep/scenario_grid.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <string_view>

#include "common/contracts.hpp"
#include "common/serialize.hpp"
#include "common/table.hpp"
#include "sweep/shard.hpp"

namespace tscclock::sweep {

namespace {

/// splitmix64 finalizer: spreads related inputs (master ^ hash) across the
/// full 64-bit space so mt19937_64 seeds are well decorrelated.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front())))
    text.remove_prefix(1);
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back())))
    text.remove_suffix(1);
  return text;
}

/// Parse one `fleet` / `fleet(key=value,…)` item. Every rejection names the
/// offending item verbatim — these surface as exit-2 CLI usage errors.
FleetSpec parse_fleet_spec(std::string_view item) {
  const std::string context = "fleet spec '" + std::string(item) + "'";
  if (item.empty()) throw SweepUsageError(context + ": empty spec");

  std::string_view head = item;
  std::string_view body;
  bool has_params = false;
  const std::size_t open = item.find('(');
  if (open != std::string_view::npos) {
    if (item.back() != ')') throw SweepUsageError(context + ": missing ')'");
    head = trim(item.substr(0, open));
    body = item.substr(open + 1, item.size() - open - 2);
    if (body.find('(') != std::string_view::npos ||
        body.find(')') != std::string_view::npos) {
      throw SweepUsageError(context + ": nested or unbalanced parentheses");
    }
    has_params = true;
  } else if (item.find(')') != std::string_view::npos) {
    throw SweepUsageError(context + ": unmatched ')'");
  }
  if (head != "fleet") {
    throw SweepUsageError(context + ": expected 'fleet' or 'fleet(...)', got '" +
                          std::string(head) + "'");
  }

  FleetSpec spec;
  if (!has_params || trim(body).empty()) return spec;

  std::set<std::string> seen_keys;
  std::string_view rest = body;
  while (true) {
    const std::size_t comma = rest.find(',');
    const std::string_view pair = trim(rest.substr(0, comma));
    const std::size_t eq = pair.find('=');
    if (pair.empty() || eq == std::string_view::npos || eq == 0) {
      throw SweepUsageError(context + ": expected key=value, got '" +
                            std::string(pair) + "'");
    }
    const std::string key(trim(pair.substr(0, eq)));
    const std::string value(trim(pair.substr(eq + 1)));
    if (!seen_keys.insert(key).second) {
      throw SweepUsageError(context + ": duplicate key '" + key + "'");
    }
    try {
      if (key == "n") {
        const std::uint64_t n = parse_u64_exact(value);
        if (n < 1 || n > 1024) {
          throw SweepUsageError(context + ": n must be in [1, 1024], got " +
                                value);
        }
        spec.config.n_clients = static_cast<std::size_t>(n);
      } else if (key == "shared_congestion" || key == "hierarchy") {
        if (value != "0" && value != "1") {
          throw SweepUsageError(context + ": " + key +
                                " must be 0 or 1, got '" + value + "'");
        }
        (key == "hierarchy" ? spec.config.hierarchy
                            : spec.config.shared_congestion) = value == "1";
      } else if (key == "bridge_warmup") {
        const double warmup = parse_double_exact(value);
        if (!(warmup >= 0.0)) {
          throw SweepUsageError(context +
                                ": bridge_warmup must be >= 0 seconds, got '" +
                                value + "'");
        }
        spec.config.bridge_warmup = warmup;
      } else {
        throw SweepUsageError(
            context + ": unknown key '" + key +
            "' (tunable keys: n, shared_congestion, hierarchy, "
            "bridge_warmup)");
      }
    } catch (const std::runtime_error& error) {
      // parse_u64_exact/parse_double_exact throw plain runtime_errors;
      // rewrap so every malformed spec surfaces as a usage error.
      if (dynamic_cast<const SweepUsageError*>(&error)) throw;
      throw SweepUsageError(context + ": value '" + value + "' for '" + key +
                            "' does not parse (" + error.what() + ")");
    }
    if (comma == std::string_view::npos) break;
    rest = rest.substr(comma + 1);
  }
  return spec;
}

}  // namespace

std::string FleetSpec::label() const {
  const sim::FleetConfig defaults;
  std::vector<std::string> parts;
  if (config.n_clients != defaults.n_clients)
    parts.push_back(strfmt("n=%zu", config.n_clients));
  if (config.shared_congestion != defaults.shared_congestion)
    parts.push_back("shared_congestion=1");
  if (config.hierarchy != defaults.hierarchy) parts.push_back("hierarchy=1");
  if (config.bridge_warmup != defaults.bridge_warmup)
    parts.push_back(strfmt("bridge_warmup=%g", config.bridge_warmup));
  if (parts.empty()) return "fleet";
  std::string out = "fleet(";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ',';
    out += parts[i];
  }
  out += ')';
  return out;
}

std::vector<FleetSpec> parse_fleet_specs(const std::string& text) {
  const std::string context = "fleet list '" + text + "'";
  // Paren-aware top-level comma split (the estimator-axis splitter's
  // technique): commas inside fleet(...) do not separate items.
  std::vector<std::string> items;
  std::string current;
  int depth = 0;
  for (const char c : text) {
    if (c == '(') ++depth;
    if (c == ')' && --depth < 0)
      throw SweepUsageError(context + ": unmatched ')'");
    if (c == ',' && depth == 0) {
      items.push_back(current);
      current.clear();
      continue;
    }
    current += c;
  }
  items.push_back(current);

  std::vector<FleetSpec> specs;
  std::set<std::string> seen;
  for (const auto& item : items) {
    const std::string_view trimmed = trim(item);
    if (trimmed.empty()) throw SweepUsageError(context + ": empty item");
    FleetSpec spec = parse_fleet_spec(trimmed);
    if (!seen.insert(spec.label()).second) {
      throw SweepUsageError(context + ": duplicate fleet spec '" +
                            spec.label() + "'");
    }
    specs.push_back(spec);
  }
  return specs;
}

std::string scenario_name(sim::ServerKind server, sim::Environment environment,
                          Seconds poll_period, const std::string& schedule) {
  return sim::to_string(server) + "/" + sim::to_string(environment) + "/" +
         strfmt("poll%g", poll_period) + "/" + schedule;
}

std::uint64_t scenario_seed(std::uint64_t master_seed,
                            const std::string& identity) {
  return splitmix64(master_seed ^ fnv1a64(identity));
}

std::vector<SweepScenario> expand_grid(const GridSpec& grid) {
  TSC_EXPECTS(!grid.servers.empty());
  TSC_EXPECTS(!grid.environments.empty());
  TSC_EXPECTS(!grid.poll_periods.empty());
  TSC_EXPECTS(!grid.schedules.empty());
  TSC_EXPECTS(!grid.fleets.empty());
  TSC_EXPECTS(grid.duration > 0.0);
  for (const auto poll : grid.poll_periods) TSC_EXPECTS(poll >= kMinPollPeriod);
  for (const auto& fleet : grid.fleets) {
    TSC_EXPECTS(fleet.config.n_clients >= 1);
    TSC_EXPECTS(fleet.config.n_clients <= 1024);
    TSC_EXPECTS(fleet.config.bridge_warmup >= 0.0);
  }
  // The estimator axis is not part of the expansion (it never touches the
  // seeds), but a sweep with no or duplicate estimators is still a grid
  // misconfiguration — reject it where every other axis is validated.
  // Identity is the canonical label, so `robust` and `robust()` collide.
  TSC_EXPECTS(!grid.estimators.empty());
  {
    std::set<std::string> unique_estimators;
    for (const auto& spec : grid.estimators)
      unique_estimators.insert(spec.label());
    TSC_EXPECTS(unique_estimators.size() == grid.estimators.size());
  }

  std::vector<SweepScenario> scenarios;
  scenarios.reserve(grid.size());
  std::set<std::string> seen_names;
  for (const auto server : grid.servers) {
    for (const auto environment : grid.environments) {
      for (const auto poll : grid.poll_periods) {
        for (const auto& schedule : grid.schedules) {
          for (const auto& fleet : grid.fleets) {
            SweepScenario scenario;
            scenario.index = scenarios.size();
            scenario.name =
                scenario_name(server, environment, poll, schedule.name);
            // Single-client cells keep the historical identity (name AND
            // seed): adding the fleet axis must not re-seed or rename any
            // pre-fleet scenario. Non-single cells append the canonical
            // fleet label, which also keys their derived seed.
            if (!fleet.single()) {
              scenario.name += '/';
              scenario.name += fleet.label();
            }
            scenario.fleet = fleet;
            // Identity = name = seed derivation input: a duplicate axis
            // value (or two schedules sharing a name) would silently
            // collapse two cells onto one RNG stream.
            TSC_EXPECTS(seen_names.insert(scenario.name).second);

            sim::ScenarioConfig& config = scenario.config;
            config.server = server;
            config.environment = environment;
            config.poll_period = poll;
            // Poll jitter must stay strictly inside half the poll period
            // (Testbed contract); clamp for short poll periods.
            config.poll_jitter = std::min(grid.poll_jitter, poll / 4);
            config.duration = grid.duration;
            config.use_wire_format = grid.use_wire_format;
            config.check_wire = grid.check_wire;
            config.events = schedule.events;
            config.server_switches = schedule.server_switches;
            config.seed = scenario_seed(grid.master_seed, scenario.name);

            scenarios.push_back(std::move(scenario));
          }
        }
      }
    }
  }
  // Imported traces ride behind the cartesian cells, one scenario per file.
  // The seed is derived like any other cell's (identity = name) even though
  // a replayed trace consumes no randomness — result rows must carry a
  // well-defined seed column either way.
  for (const auto& path : grid.trace_inputs) {
    TSC_EXPECTS(!path.empty());
    SweepScenario scenario;
    scenario.index = scenarios.size();
    scenario.name = "trace:" + path;
    TSC_EXPECTS(seen_names.insert(scenario.name).second);
    scenario.trace_path = path;
    scenario.config.seed = scenario_seed(grid.master_seed, scenario.name);
    scenarios.push_back(std::move(scenario));
  }
  return scenarios;
}

std::string grid_descriptor(const GridSpec& grid) {
  // Every field below can change a result cell; nothing else in GridSpec
  // can. Doubles are rendered in exact hexfloat so two descriptors are
  // equal iff the grids are value-identical (no %g collision window).
  std::ostringstream out;
  out << "tscclock-grid v3\n";  // v3: trace-input axis joined the fingerprint
  out << "servers";
  for (const auto server : grid.servers) out << ' ' << sim::to_string(server);
  out << "\nenvironments";
  for (const auto environment : grid.environments) {
    out << ' ' << sim::to_string(environment);
  }
  out << "\npolls";
  for (const auto poll : grid.poll_periods) {
    out << ' ' << format_double_exact(poll);
  }
  out << '\n';
  for (const auto& schedule : grid.schedules) {
    // Schedules carry structure, not just a name: two invocations may both
    // say "outage" yet place the gap differently (the CLI derives event
    // times from the duration). Serialize the contents.
    out << "schedule " << escape_field(schedule.name);
    for (const auto& o : schedule.events.outages()) {
      out << " outage " << format_double_exact(o.start) << ' '
          << format_double_exact(o.end);
    }
    for (const auto& f : schedule.events.server_faults()) {
      out << " fault " << format_double_exact(f.start) << ' '
          << format_double_exact(f.end) << ' '
          << format_double_exact(f.offset);
    }
    for (const auto& s : schedule.events.level_shifts()) {
      out << " shift " << format_double_exact(s.start) << ' '
          << format_double_exact(s.end) << ' '
          << format_double_exact(s.forward_delta) << ' '
          << format_double_exact(s.backward_delta);
    }
    for (const auto& s : schedule.server_switches) {
      out << " switch " << format_double_exact(s.time) << ' '
          << sim::to_string(s.kind);
    }
    out << '\n';
  }
  out << "estimators";
  for (const auto& spec : grid.estimators) {
    out << ' ' << escape_field(spec.label());
  }
  // Fleet axis, structurally: the canonical label elides defaults, so the
  // fingerprint spells every tunable out in exact form instead.
  out << "\nfleets";
  for (const auto& fleet : grid.fleets) {
    out << " n " << fleet.config.n_clients << " sc "
        << (fleet.config.shared_congestion ? 1 : 0) << " hier "
        << (fleet.config.hierarchy ? 1 : 0) << " bw "
        << format_double_exact(fleet.config.bridge_warmup);
  }
  // Trace inputs are identified by path: the cell re-reads the file at run
  // time, so the path IS the cell's identity (a changed file under the same
  // path is the same caveat any checkpointed input file has).
  out << "\ntraces";
  for (const auto& path : grid.trace_inputs) out << ' ' << escape_field(path);
  out << "\nduration " << format_double_exact(grid.duration);
  out << "\npoll_jitter " << format_double_exact(grid.poll_jitter);
  out << "\nwire " << (grid.use_wire_format ? 1 : 0);
  out << "\nmaster_seed " << grid.master_seed << '\n';
  return out.str();
}

}  // namespace tscclock::sweep
