// Compares BENCH_results.json files against a committed baseline and fails
// (exit 1) on regressions, so CI catches a hot-path slowdown before merge.
//
//   bench_check --baseline bench/BENCH_baseline.json RESULTS.json [MORE.json...]
//       [--max-wall-regress 0.25]   fail when wall_seconds grows by >25%
//       [--min-wall 0.05]           ignore wall checks below this many seconds
//
// Each file is one JSON array of bench records, read with the strict
// src/obs/json reader; a malformed file exits 2 with the reader's offset
// message. A record's "bench", "wall_seconds", "status", "wall_exempt" and
// "fingerprint" are top-level keys; its conflict count is the
// "sat_conflicts" of its nested "metrics" object (report.h's to_json).
//
// A baseline record absent from the results is MISSING and fails the run.
// A run cut short (TIMEOUT, BUDGET, MEMORY) against a completed baseline is
// a regression. WALL fails when wall_seconds grows past the tolerance; a
// baseline entry carrying "wall_exempt": true opts out of that gate only
// (used for IO-bound benches whose absolute time is dominated by the
// recording machine's disk, e.g. stream_ingest). CONFLICT fails when
// sat_conflicts more than doubles.
//
// When both the baseline entry and the result carry a nonzero "fingerprint"
// (the structural clause-database hash the encode benches record), they must
// match exactly: the fingerprint is machine-independent, so any drift means
// the encoder changed the emitted clauses — in particular it pins the
// proof-logging zero-cost claim, since the baseline values were produced by
// a proof-logging-disabled encode (docs/proof_checking.md). Fingerprints use
// the full uint64 range, so they are read exactly from the number's text,
// never through a double.
//
// A baseline entry carrying a "metrics" object requires the result entry to
// carry one too — the presence gate that keeps the observability plumbing
// wired into the bench emitters.
//
// Wall-clock on shared CI runners is noisy, hence the absolute floor and the
// generous default tolerance; conflict counts are machine-independent and
// catch search-quality regressions the timings hide.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "src/base/status.h"
#include "src/obs/json.h"
#include "src/util/cli.h"

namespace {

using t2m::obs::JsonValue;

/// A CONFLICT regression is more than this many times the baseline count.
constexpr double kMaxConflictFactor = 2.0;

struct Record {
  double wall_seconds = 0.0;
  std::uint64_t sat_conflicts = 0;
  t2m::ErrorCode status = t2m::ErrorCode::ok;
  bool wall_exempt = false;
  std::uint64_t fingerprint = 0;  ///< 0 = not recorded; gate needs both sides
  /// Record carries a "metrics" object. Presence-gated like the
  /// fingerprint: the gate only fires when the baseline has one.
  bool has_metrics = false;
};

/// A run that was cut short — by the clock, the clause budget, or the memory
/// cap. Its wall time and conflict count describe the cutoff, not the
/// workload, so neither is comparable against (or as) a baseline.
bool incomplete(const Record& r) { return t2m::cut_short(r.status); }

/// The regression tag for a run cut short against a completed baseline.
const char* cut_short_tag(t2m::ErrorCode code) {
  switch (code) {
    case t2m::ErrorCode::clause_budget: return "BUDGET   ";
    case t2m::ErrorCode::resource_exhausted: return "MEMORY   ";
    default: return "TIMEOUT  ";
  }
}

/// A malformed artefact is a tooling bug, not a bench regression: bail with
/// the usage exit code.
[[noreturn]] void malformed(const std::string& path, const std::string& what) {
  std::cerr << "bench_check: " << path << ": " << what << "\n";
  std::exit(2);
}

/// `record[key]` when present, checked to be of `kind`; nullptr when absent.
const JsonValue* field(const JsonValue& record, const char* key, JsonValue::Kind kind,
                       const std::string& path) {
  const JsonValue* value = record.find(key);
  if (value != nullptr && value->kind != kind) {
    malformed(path, std::string("\"") + key + "\" has the wrong type");
  }
  return value;
}

std::uint64_t exact_count(const JsonValue& value, const char* key, const std::string& path) {
  const auto count = value.as_uint64();
  if (!count) malformed(path, std::string("malformed ") + key + " '" + value.string + "'");
  return *count;
}

std::map<std::string, Record> load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_check: cannot open " << path << "\n";
    std::exit(2);
  }
  std::ostringstream text;
  text << in.rdbuf();
  JsonValue document;
  if (const t2m::Status parsed = t2m::obs::parse_json(text.str(), document); !parsed.ok()) {
    malformed(path, parsed.to_string());
  }
  if (!document.is_array()) malformed(path, "expected an array of bench records");

  using Kind = JsonValue::Kind;
  std::map<std::string, Record> records;
  for (const JsonValue& entry : document.array) {
    if (!entry.is_object()) malformed(path, "expected an array of bench records");
    const JsonValue* bench = field(entry, "bench", Kind::String, path);
    if (bench == nullptr) malformed(path, "record without a \"bench\" name");
    Record rec;
    if (const JsonValue* wall = field(entry, "wall_seconds", Kind::Number, path)) {
      rec.wall_seconds = wall->number;
    }
    if (const JsonValue* status = field(entry, "status", Kind::String, path)) {
      if (!t2m::parse_error_code(status->string, rec.status)) {
        malformed(path, "malformed status '" + status->string + "'");
      }
    }
    if (const JsonValue* exempt = field(entry, "wall_exempt", Kind::Bool, path)) {
      rec.wall_exempt = exempt->boolean;
    }
    if (const JsonValue* fp = field(entry, "fingerprint", Kind::Number, path)) {
      rec.fingerprint = exact_count(*fp, "fingerprint", path);
    }
    if (const JsonValue* metrics = field(entry, "metrics", Kind::Object, path)) {
      rec.has_metrics = true;
      if (const JsonValue* conflicts = field(*metrics, "sat_conflicts", Kind::Number, path)) {
        rec.sat_conflicts = exact_count(*conflicts, "sat_conflicts", path);
      }
    }
    records[bench->string] = rec;
  }
  return records;
}

}  // namespace

int main(int argc, char** argv) {
  using t2m::CliArgs;
  const CliArgs args(argc, argv);
  const std::string baseline_path = args.get_or("baseline", "bench/BENCH_baseline.json");
  const double max_wall_regress = args.get_double_or("max-wall-regress", 0.25);
  const double min_wall = args.get_double_or("min-wall", 0.05);
  if (args.positional().empty()) {
    std::cerr << "usage: bench_check --baseline BASELINE.json RESULTS.json [MORE.json...]\n";
    return 2;
  }

  const std::map<std::string, Record> baseline = load(baseline_path);
  std::map<std::string, Record> results;
  for (const std::string& path : args.positional()) {
    for (const auto& [bench, rec] : load(path)) results[bench] = rec;
  }

  int regressions = 0;
  int missing = 0;
  int checked = 0;
  for (const auto& [bench, base] : baseline) {
    const auto it = results.find(bench);
    if (it == results.end()) {
      std::cerr << "MISSING  " << bench << " (in baseline, absent from results)\n";
      ++missing;
      continue;
    }
    const Record& got = it->second;
    ++checked;
    // The cut-short verdicts are distinct regressions: a timeout blames the
    // machine/budgeted clock, a budget overflow the encoding size, a memory
    // overrun the footprint — a bench that newly reports one against a
    // completed baseline fails with the matching tag.
    if (incomplete(got) && !incomplete(base)) {
      std::cerr << cut_short_tag(got.status) << bench << " ("
                << t2m::error_code_name(got.status) << "; baseline completed)\n";
      ++regressions;
      continue;
    }
    if (base.wall_seconds >= min_wall && !incomplete(base) && !incomplete(got) &&
        !base.wall_exempt &&
        got.wall_seconds > base.wall_seconds * (1.0 + max_wall_regress)) {
      std::cerr << "WALL     " << bench << ": " << got.wall_seconds << "s vs baseline "
                << base.wall_seconds << "s (> +" << max_wall_regress * 100 << "%)\n";
      ++regressions;
    }
    // Fingerprints are exact and machine-independent — no tolerance, no
    // wall exemption. A mismatch means the encoder emits different clauses
    // than the committed baseline did.
    if (base.fingerprint != 0 && got.fingerprint != 0 &&
        got.fingerprint != base.fingerprint) {
      std::cerr << "FINGERPRINT " << bench << ": " << got.fingerprint
                << " vs baseline " << base.fingerprint
                << " (clause database drifted)\n";
      ++regressions;
    }
    // A bench that recorded a metrics snapshot into the baseline must keep
    // recording one: losing it means the observability plumbing silently
    // fell out of the bench emitter.
    if (base.has_metrics && !got.has_metrics) {
      std::cerr << "METRICS  " << bench
                << " (baseline has a metrics snapshot, results do not)\n";
      ++regressions;
    }
    // Conflict counts are only comparable between completed runs: a run cut
    // off by its timeout or clause budget has done as much search as the
    // machine (or the budget) allowed.
    if (!incomplete(base) && !incomplete(got) && base.sat_conflicts >= 100 &&
        static_cast<double>(got.sat_conflicts) >
            static_cast<double>(base.sat_conflicts) * kMaxConflictFactor) {
      std::cerr << "CONFLICT " << bench << ": " << got.sat_conflicts << " vs baseline "
                << base.sat_conflicts << " (> x" << kMaxConflictFactor << ")\n";
      ++regressions;
    }
  }

  std::cout << "bench_check: " << checked << " benches checked against " << baseline_path
            << ", " << missing << " missing, " << regressions << " regression(s)\n";
  return regressions == 0 && missing == 0 ? 0 : 1;
}
