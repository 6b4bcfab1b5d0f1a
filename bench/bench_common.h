#pragma once
// Shared scaffolding for the bench binaries: default parameters, enum
// names, the axis parsers of bench_sweep, and the speedup gates.
// bench_claims regenerates the paper's quantitative claims.

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "core/params.h"
#include "net/topology.h"
#include "proc/placement.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/table.h"

namespace wlsync::bench {

/// Default "hardware" constants used across experiments: 10 ms median
/// delay, 1 ms uncertainty, drift 1e-5; designer picks P = 10 s.
inline core::Params default_params(std::int32_t n, std::int32_t f,
                                   double P = 10.0) {
  return core::make_params(n, f, /*rho=*/1e-5, /*delta=*/0.01, /*eps=*/1e-3, P);
}

inline void print_header(const std::string& id, const std::string& claim) {
  std::cout << "\n=== " << id << " ===\n" << claim << "\n\n";
}

inline const char* fault_name(analysis::FaultKind kind) {
  switch (kind) {
    case analysis::FaultKind::kNone: return "none";
    case analysis::FaultKind::kSilent: return "silent";
    case analysis::FaultKind::kSpam: return "spam";
    case analysis::FaultKind::kTwoFaced: return "two-faced";
    case analysis::FaultKind::kLiar: return "liar";
  }
  return "?";
}

inline const char* drift_name(analysis::DriftKind kind) {
  switch (kind) {
    case analysis::DriftKind::kNone: return "none";
    case analysis::DriftKind::kExtremal: return "extremal";
    case analysis::DriftKind::kPiecewise: return "piecewise";
    case analysis::DriftKind::kRandomWalk: return "randomwalk";
  }
  return "?";
}

inline const char* delay_name(analysis::DelayKind kind) {
  switch (kind) {
    case analysis::DelayKind::kUniform: return "uniform";
    case analysis::DelayKind::kFast: return "all-fast";
    case analysis::DelayKind::kSlow: return "all-slow";
    case analysis::DelayKind::kPerLink: return "per-link";
    case analysis::DelayKind::kSplit: return "split";
    case analysis::DelayKind::kExpTrunc: return "exp-trunc";
  }
  return "?";
}

inline const char* algo_name(analysis::Algo algo) {
  switch (algo) {
    case analysis::Algo::kWelchLynch: return "Welch-Lynch";
    case analysis::Algo::kLM: return "LM-CNV";
    case analysis::Algo::kST: return "Srikanth-Toueg";
    case analysis::Algo::kMS: return "Mahaney-Schneider";
    case analysis::Algo::kPlainMean: return "plain-mean";
    case analysis::Algo::kHSSD: return "HSSD (signed)";
    case analysis::Algo::kStartup: return "start-up";
  }
  return "?";
}

/// Prints PASS/note column entries uniformly.
inline std::string verdict(bool ok) { return ok ? "yes" : "NO"; }

// ------------------------------------------------------ CSV grid axes ---
//
// bench_sweep's flag vocabulary: comma-separated axis lists mapped
// through these tables.  Adding an enum value means extending exactly one
// table here.

inline std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> items;
  std::stringstream stream(value);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

/// One integer list entry of flag `flag`, parsed in full and inside the
/// int32 range every axis is stored in; anything else throws naming the
/// flag, as util::Flags::get_int does.
inline std::int32_t parse_int(const std::string& item,
                              const std::string& flag) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(item.c_str(), &end, 10);
  if (end == item.c_str() || *end != '\0' || errno == ERANGE ||
      value < std::numeric_limits<std::int32_t>::min() ||
      value > std::numeric_limits<std::int32_t>::max()) {
    throw std::invalid_argument("--" + flag + ": entry '" + item +
                                "' is not a 32-bit integer");
  }
  return static_cast<std::int32_t>(value);
}

inline std::vector<std::int32_t> split_ints(const std::string& value,
                                            const std::string& flag) {
  std::vector<std::int32_t> items;
  for (const std::string& item : split_list(value)) {
    items.push_back(parse_int(item, flag));
  }
  return items;
}

inline std::vector<double> split_doubles(const std::string& value,
                                         const std::string& flag) {
  std::vector<double> items;
  for (const std::string& item : split_list(value)) {
    char* end = nullptr;
    errno = 0;
    items.push_back(std::strtod(item.c_str(), &end));
    if (end == item.c_str() || *end != '\0' || errno == ERANGE) {
      throw std::invalid_argument("--" + flag + ": entry '" + item +
                                  "' is not a number");
    }
  }
  return items;
}

template <typename T>
T parse_name(const std::string& name,
             const std::vector<std::pair<std::string, T>>& table,
             const char* axis) {
  for (const auto& [key, value] : table) {
    if (key == name) return value;
  }
  throw std::invalid_argument(std::string("unknown ") + axis + " '" + name + "'");
}

inline analysis::Algo parse_algo(const std::string& name) {
  return parse_name<analysis::Algo>(
      name,
      {{"wl", analysis::Algo::kWelchLynch},
       {"lm", analysis::Algo::kLM},
       {"st", analysis::Algo::kST},
       {"ms", analysis::Algo::kMS},
       {"mean", analysis::Algo::kPlainMean},
       {"hssd", analysis::Algo::kHSSD},
       {"startup", analysis::Algo::kStartup}},
      "algo");
}

inline analysis::DelayKind parse_delay(const std::string& name) {
  return parse_name<analysis::DelayKind>(
      name,
      {{"uniform", analysis::DelayKind::kUniform},
       {"fast", analysis::DelayKind::kFast},
       {"slow", analysis::DelayKind::kSlow},
       {"perlink", analysis::DelayKind::kPerLink},
       {"split", analysis::DelayKind::kSplit},
       {"exptrunc", analysis::DelayKind::kExpTrunc}},
      "delay");
}

inline analysis::DriftKind parse_drift(const std::string& name) {
  return parse_name<analysis::DriftKind>(
      name,
      {{"none", analysis::DriftKind::kNone},
       {"extremal", analysis::DriftKind::kExtremal},
       {"piecewise", analysis::DriftKind::kPiecewise},
       {"randomwalk", analysis::DriftKind::kRandomWalk}},
      "drift");
}

inline analysis::FaultKind parse_fault(const std::string& name) {
  return parse_name<analysis::FaultKind>(
      name,
      {{"none", analysis::FaultKind::kNone},
       {"silent", analysis::FaultKind::kSilent},
       {"spam", analysis::FaultKind::kSpam},
       {"twofaced", analysis::FaultKind::kTwoFaced},
       {"liar", analysis::FaultKind::kLiar}},
      "fault");
}

inline net::TopologyKind parse_topology(const std::string& name) {
  return parse_name<net::TopologyKind>(
      name,
      {{"mesh", net::TopologyKind::kFullMesh},
       {"cliques", net::TopologyKind::kRingOfCliques},
       {"kregular", net::TopologyKind::kKRegular}},
      "topology");
}

/// NIC axis values: "off" (no ingress model), "inf" (unbounded queue), or a
/// capacity in datagrams (> 0).  Returns the std::optional the RunSpec
/// wants; malformed tokens fail with the axis named, like parse_name.
inline std::optional<sim::NicConfig> parse_nic(const std::string& name,
                                               double service_time) {
  if (name == "off") return std::nullopt;
  sim::NicConfig config;
  config.service_time = service_time;
  if (name == "inf") {
    config.capacity = 0;  // NicConfig's "never overflows" encoding
    return config;
  }
  if (name.empty() || name.size() > 9 ||
      name.find_first_not_of("0123456789") != std::string::npos) {
    // The length cap keeps std::stoull from throwing out_of_range past
    // 64 bits; a 9-digit NIC queue is already physically absurd.
    throw std::invalid_argument("unknown nic '" + name +
                                "' (use off, inf, or a capacity > 0)");
  }
  config.capacity = static_cast<std::size_t>(std::stoull(name));
  if (config.capacity == 0) {
    // A literal 0 would silently mean unbounded (the NicConfig encoding);
    // make the sweep author say "inf" when that is what they want.
    throw std::invalid_argument("nic capacity must be > 0 (use inf for an "
                                "unbounded queue, off to disable)");
  }
  return config;
}

/// CSV echo of a NIC axis cell: "off", "inf", or the capacity.
inline std::string nic_name(const std::optional<sim::NicConfig>& nic) {
  if (!nic.has_value()) return "off";
  if (nic->capacity == 0) return "inf";
  return std::to_string(nic->capacity);
}

inline sim::NicDropPolicy parse_nic_drop(const std::string& name) {
  return parse_name<sim::NicDropPolicy>(
      name,
      {{"oldest", sim::NicDropPolicy::kDropOldest},
       {"newest", sim::NicDropPolicy::kDropNewest}},
      "nic-drop");
}

inline const char* nic_drop_name(sim::NicDropPolicy policy) {
  return policy == sim::NicDropPolicy::kDropOldest ? "oldest" : "newest";
}

/// The history axis, which picks the measurement driver: "off" keeps the
/// whole clock/CORR history and measures post hoc on the sample grids;
/// "bounded" drops history behind the streaming observer's frontier
/// (RunSpec::retain_history = false; analysis/observe.h), so the run is
/// measured while it executes.  The two match bitwise on cells that
/// complete their configured rounds (every healthy cell).  A degraded run
/// that never completes round (rounds+1)/2 measures the stream's own
/// collapsed window instead of the post-hoc anchor — ObserveStats::t_steady
/// == t_end marks such rows.  Returns retain_history.
inline bool parse_observe(const std::string& name) {
  if (name == "off") return true;
  if (name == "bounded") return false;
  throw std::invalid_argument("unknown observe '" + name +
                              "' (use off or bounded)");
}

inline const char* observe_name(bool retain_history) {
  return retain_history ? "off" : "bounded";
}

/// The execution-engine axis (core/fastpath.h, engine/pdes.h): "event" =
/// the event engine only (the measured reference), "fastpath" = require the
/// round fast path (the run aborts if the cell is ineligible — use it to
/// keep a sweep honest), "pdes" = require the sharded conservative engine
/// (pair with --workers; aborts on ineligible cells the same way), "auto" =
/// fast path where the spec qualifies, then PDES where the spec opted in
/// with workers >= 2.  All four are bit-identical at results_identical
/// strictness; the axis exists so the wall_s / rounds-per-sec columns can
/// show the speedup per cell.
inline analysis::EngineMode parse_engine(const std::string& name) {
  return parse_name<analysis::EngineMode>(
      name,
      {{"event", analysis::EngineMode::kEvent},
       {"fastpath", analysis::EngineMode::kFastpath},
       {"pdes", analysis::EngineMode::kPdes},
       {"auto", analysis::EngineMode::kAuto}},
      "engine");
}

inline const char* engine_name(analysis::EngineMode engine) {
  switch (engine) {
    case analysis::EngineMode::kEvent: return "event";
    case analysis::EngineMode::kFastpath: return "fastpath";
    case analysis::EngineMode::kPdes: return "pdes";
    case analysis::EngineMode::kAuto: return "auto";
  }
  return "?";
}

/// Column echo of a RunResult refusal reason (fastpath_refusal /
/// pdes_refusal): "-" when the engine ran or was never consulted, else the
/// reason with commas replaced by ';' so the string stays one CSV field.
inline std::string refusal_csv(const std::string& reason) {
  if (reason.empty()) return "-";
  std::string safe = reason;
  for (char& c : safe) {
    if (c == ',') c = ';';
  }
  return safe;
}

inline proc::PlacementKind parse_placement(const std::string& name) {
  return parse_name<proc::PlacementKind>(
      name,
      {{"trailing", proc::PlacementKind::kTrailing},
       {"random", proc::PlacementKind::kRandom},
       {"maxdeg", proc::PlacementKind::kMaxDegree},
       {"articulation", proc::PlacementKind::kArticulation},
       {"bridge", proc::PlacementKind::kBridge},
       {"antipodal", proc::PlacementKind::kAntipodal}},
      "placement");
}

/// Interleaved best-of-N timing, the one measurement loop of both JSON
/// compare gates (bench_micro --fastpath-json, bench_sweep --pdes-json).
/// Each of `reps` passes runs every configuration once, in order, so a slow
/// stretch of the host lands on all of them rather than on one side of a
/// ratio.  `run(c)` runs configuration c once and returns its timed sample
/// in seconds, or nullopt when c cannot run (it is then left out of later
/// passes).  A configuration whose best sample already reaches
/// `repeat_below_s` is not run again: long cells are stable after one
/// sample.  Callers keep their own per-configuration records.
template <typename Run>
void time_interleaved(std::size_t configs, std::int32_t reps,
                      double repeat_below_s, Run&& run) {
  std::vector<std::optional<double>> best(configs);
  std::vector<char> dropped(configs, 0);
  for (std::int32_t rep = 0; rep < reps; ++rep) {
    for (std::size_t c = 0; c < configs; ++c) {
      if (dropped[c] != 0 || (best[c] && *best[c] >= repeat_below_s)) continue;
      const std::optional<double> sample = run(c);
      if (!sample) {
        dropped[c] = 1;
      } else if (!best[c] || *sample < *best[c]) {
        best[c] = sample;
      }
    }
  }
}

/// Minimal extraction of the `"speedup": { "key": value, ... }` object from
/// a prior perf-trajectory artifact (BENCH_fastpath.json / BENCH_pdes.json).
/// Not a JSON parser — the artifacts are machine-written by the emit loops,
/// so quoted keys followed by a colon and a number inside the one speedup
/// object is the entire grammar.  Shared by bench_micro --fastpath-compare
/// and bench_sweep --pdes-compare.
inline bool parse_speedup_map(const std::string& path,
                              std::vector<std::pair<std::string, double>>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const std::size_t at = text.find("\"speedup\"");
  if (at == std::string::npos) return false;
  const std::size_t open = text.find('{', at);
  const std::size_t close = text.find('}', open);
  if (open == std::string::npos || close == std::string::npos) return false;
  std::size_t cursor = open + 1;
  while (cursor < close) {
    const std::size_t k0 = text.find('"', cursor);
    if (k0 == std::string::npos || k0 > close) break;
    const std::size_t k1 = text.find('"', k0 + 1);
    const std::size_t colon = text.find(':', k1);
    if (k1 == std::string::npos || colon == std::string::npos ||
        colon > close) {
      return false;
    }
    out->emplace_back(text.substr(k0 + 1, k1 - k0 - 1),
                      std::stod(text.substr(colon + 1)));
    cursor = text.find(',', colon);
    if (cursor == std::string::npos || cursor > close) break;
    ++cursor;
  }
  return true;
}

/// Gates a fresh speedup map against a baseline artifact's: every shared
/// key must stay within `floor` of its baseline ratio.  Keys only one side
/// knows are skipped; zero shared keys is an error (return -1), not a
/// pass.  Returns 1 on pass, 0 on fail, printing one verdict row per
/// shared key on std::cout under `label`.
inline int gate_speedups(
    const std::string& label,
    const std::vector<std::pair<std::string, double>>& fresh,
    const std::vector<std::pair<std::string, double>>& baseline,
    double floor) {
  bool all_pass = true;
  int shared = 0;
  for (const auto& [key, fresh_ratio] : fresh) {
    for (const auto& [old_key, old_ratio] : baseline) {
      if (old_key != key) continue;
      ++shared;
      const bool pass = fresh_ratio >= floor * old_ratio;
      all_pass = all_pass && pass;
      std::cout << "  " << (pass ? "ok  " : "FAIL") << " " << key
                << " speedup " << fresh_ratio << " vs baseline " << old_ratio
                << " (floor " << floor * old_ratio << ")\n";
    }
  }
  if (shared == 0) {
    std::cerr << label << ": no shared speedup keys with the baseline\n";
    return -1;
  }
  std::cout << (all_pass ? label + ": PASS" : label + ": FAIL") << " ("
            << shared << " shared keys, floor " << floor << "x baseline)\n";
  return all_pass ? 1 : 0;
}

}  // namespace wlsync::bench
