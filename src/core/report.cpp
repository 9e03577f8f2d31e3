#include "src/core/report.h"

#include <sstream>
#include <type_traits>

#include "src/automaton/dot.h"
#include "src/base/memory_accountant.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/util/string_utils.h"

namespace t2m {

namespace {

/// How a run without a model ended, one phrase per status code: the report
/// and the summary both print it, so the two never disagree.
const char* failure_verdict(ErrorCode code) {
  switch (code) {
    case ErrorCode::ok: return "found no model";
    case ErrorCode::deadline_exceeded: return "timed out";
    case ErrorCode::cancelled: return "was cancelled";
    case ErrorCode::clause_budget: return "hit the clause budget";
    case ErrorCode::resource_exhausted: return "ran out of memory";
    default: return "failed with an error";
  }
}

const char* json_bool(bool value) { return value ? "true" : "false"; }

}  // namespace

std::string format_learn_report(const LearnResult& result, const Schema& schema) {
  std::ostringstream os;
  if (!result.success) {
    os << "learning " << failure_verdict(result.status.code()) << " after "
       << format_double(result.stats.total_seconds) << " s\n";
    if (!result.status.ok()) os << "error: " << result.status.to_string() << "\n";
    if (result.salvaged()) {
      os << "salvaged best-so-far model: " << result.states << " states, "
         << result.model.num_transitions()
         << " transitions (compliant when captured; not a full verdict)\n";
      os << to_text(result.model);
    }
    return os.str();
  }
  os << "learned model: " << result.states << " states, "
     << result.model.num_transitions() << " transitions\n";
  os << "predicate vocabulary (" << result.preds.vocab.size() << "):\n";
  const auto names = result.preds.names_for(schema);
  for (std::size_t i = 0; i < names.size(); ++i) {
    os << "  p" << i << ": " << names[i] << "\n";
  }
  os << "sequence length |P| = " << result.stats.sequence_length << ", segments = "
     << result.stats.segments << " (" << result.stats.encoded_transitions
     << " encoded transitions)\n";
  os << "SAT calls = " << result.stats.sat_calls << ", refinements = "
     << result.stats.refinements << ", state increments = "
     << result.stats.state_increments << "\n";
  os << "time: abstraction " << format_double(result.stats.abstraction_seconds)
     << " s, construction " << format_double(result.stats.construction_seconds)
     << " s, total " << format_double(result.stats.total_seconds) << " s\n";
  if (!result.stats.portfolio.empty()) {
    os << "portfolio lanes (" << result.stats.portfolio.size() << "):\n";
    for (const PortfolioConfigStats& lane : result.stats.portfolio) {
      os << "  " << to_json(lane) << "\n";
    }
  }
  os << to_text(result.model);
  return os.str();
}

std::string format_learn_summary(const LearnResult& result) {
  std::ostringstream os;
  if (!result.success) {
    os << failure_verdict(result.status.code());
    if (result.salvaged()) os << ", salvaged " << result.states << "-state model";
    os << " (" << format_double(result.stats.total_seconds) << " s)";
    return os.str();
  }
  os << result.states << " states, " << result.model.num_transitions()
     << " transitions, " << result.preds.vocab.size() << " predicates, "
     << format_double(result.stats.total_seconds) << " s";
  return os.str();
}

std::string to_json(const PortfolioConfigStats& lane) {
  std::ostringstream os;
  os << "{\"name\": ";
  obs::write_json_string(os, lane.name);
  os << ", \"winner\": " << json_bool(lane.winner)
     << ", \"status\": \"" << error_code_name(lane.status.code()) << "\"";
  if (!lane.status.ok()) {
    os << ", \"error\": ";
    obs::write_json_string(os, lane.status.to_string());
  }
  os << ", \"states\": " << lane.states << ", \"sat_calls\": " << lane.sat_calls
     << ", \"sat_conflicts\": " << lane.sat_conflicts
     << ", \"sat_propagations\": " << lane.sat_propagations
     << ", \"wall_seconds\": " << format_double(lane.wall_seconds, 6) << "}";
  return os.str();
}

std::string to_json(const LearnStats& stats) {
  std::ostringstream os;
  const char* separator = "{";
  LearnStats::for_each_field([&](const char* name, auto field, auto) {
    using T = std::decay_t<decltype(stats.*field)>;
    os << separator << '"' << name << "\": ";
    separator = ", ";
    if constexpr (std::is_same_v<T, bool>) {
      os << json_bool(stats.*field);
    } else if constexpr (std::is_floating_point_v<T>) {
      os << format_double(stats.*field, 6);
    } else {
      os << stats.*field;
    }
  });
  if (!stats.portfolio.empty()) {
    os << ", \"portfolio\": [";
    for (std::size_t i = 0; i < stats.portfolio.size(); ++i) {
      if (i != 0) os << ", ";
      os << to_json(stats.portfolio[i]);
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

std::string to_json(const LearnResult& result) {
  std::ostringstream os;
  os << "{\"success\": " << json_bool(result.success)
     << ", \"status\": \"" << error_code_name(result.status.code()) << "\""
     << ", \"states\": " << result.states
     << ", \"transitions\": " << result.model.num_transitions()
     << ", \"predicates\": " << result.preds.vocab.size();
  if (!result.status.ok()) {
    os << ", \"error\": ";
    obs::write_json_string(os, result.status.to_string());
  }
  os << ", \"stats\": " << to_json(result.stats) << "}";
  return os.str();
}

void publish_learn_metrics(const LearnResult& result) {
  if (!obs::metrics_enabled()) return;
  const LearnStats& s = result.stats;
  obs::count("learn.runs");
  if (result.success) obs::count("learn.success");
  obs::count(("learn.status." + std::string(error_code_name(result.status.code()))).c_str());
  if (result.salvaged()) obs::count("learn.salvaged");
  // Every integer and flag field is a counter under its own name; the phase
  // times are left to the trace spans.
  LearnStats::for_each_field([&](const char* name, auto field, auto) {
    if constexpr (!std::is_floating_point_v<std::decay_t<decltype(s.*field)>>) {
      obs::count(("learn." + std::string(name)).c_str(), static_cast<std::uint64_t>(s.*field));
    }
  });
  obs::gauge_set("learn.states", static_cast<std::int64_t>(result.states));
  obs::gauge_max("learn.peak_arena_bytes",
                 static_cast<std::int64_t>(s.sat_peak_arena_bytes));
  obs::gauge_max("mem.peak_bytes",
                 static_cast<std::int64_t>(MemoryAccountant::global().peak()));
  obs::observe("learn.run_sat_calls", s.sat_calls);
  obs::observe("learn.run_conflicts", s.sat_conflicts);
}

}  // namespace t2m
