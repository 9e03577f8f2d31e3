// t2m_bench: one workload of the time-to-model benchmark, in its own process.
//
//   t2m_bench --workload kernel_full --seed 0 --seconds 33 --trace 0 --dir DIR
//
// A closed loop with one caller: it learns back to back and waits for each
// verdict, which an independent checker then verifies. --trace 0 reports the
// end-to-end metrics of plain ModelLearner calls; --trace 1 alternates each
// plain learn with a replay of the same learn through the layers' public
// functions and reports the per-layer metrics. The last stdout line is one
// JSON object; README.md lists every metric.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "replay.h"
#include "src/util/stopwatch.h"
#include "verify.h"
#include "workloads.h"

namespace {

using t2mbench::LayerStats;
using t2mbench::Workload;

/// Full set-ups (input generation plus one warm-up learn) per run: at least
/// kMinSetups, and more while they have taken under kSetupSeconds, up to
/// kMaxSetups. setup_s is their median.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 40;
constexpr double kSetupSeconds = 5.0;
/// Timed learns per run even when --seconds has already elapsed.
constexpr std::size_t kMinLearns = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = t2mbench::kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--dir") {
      args.dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  const auto& names = t2mbench::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    throw std::invalid_argument("unknown --workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) { return tv.tv_sec + 1e-6 * tv.tv_usec; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Uncontended cost of one learn: each instance's fastest time over the
/// run, summed over the workload's instances. `per_instance[i]` holds every
/// timed sample of instance i.
///
/// On a host whose memory system other tenants share, learns run up to 1.5
/// times slower for stretches of milliseconds to minutes (README.md,
/// Steadiness). Contention only ever adds time, so the fastest sample of a
/// deterministic learn is its cost without it; a median would report how
/// much of the run fell into such a stretch.
double fastest_pass(const std::vector<std::vector<double>>& per_instance) {
  double total = 0.0;
  for (const std::vector<double>& samples : per_instance) {
    total += *std::min_element(samples.begin(), samples.end());
  }
  return total;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Shortest decimal that reads back as exactly `value`.
std::string number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Counts learns and their verdict-check failures; keeps the first reason.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_failure;

  void record(const std::string& failure) {
    ++attempted;
    if (failure.empty()) return;
    ++failed;
    if (first_failure.empty()) first_failure = failure;
  }
};

/// What the traced run compares its replay against.
struct Verdict {
  bool success = false;
  std::size_t states = 0;
  std::uint64_t conflicts = 0;
};

/// One timed learn: the workload's instances learned back to back.
struct LearnRun {
  double wall_s = 0.0;
  std::vector<double> instance_wall_s;  ///< per instance, in workload order
  std::vector<double> instance_cpu_s;
  std::vector<Verdict> verdicts;
};

LearnRun learn_workload(const Workload& workload, Tally& tally) {
  LearnRun run;
  std::string failure;
  for (const t2mbench::Instance& instance : workload) {
    const double cpu_start = cpu_seconds();
    const t2m::Stopwatch watch;
    const t2m::LearnResult result = t2mbench::learn_instance(instance);
    run.instance_wall_s.push_back(watch.elapsed_seconds());
    run.instance_cpu_s.push_back(cpu_seconds() - cpu_start);
    run.wall_s += run.instance_wall_s.back();
    // The check runs outside the timed region: it is the benchmark's code.
    if (failure.empty()) failure = t2mbench::check_verdict(result, instance);
    run.verdicts.push_back({result.success, result.states, result.stats.sat_conflicts});
  }
  tally.record(failure);
  return run;
}

/// Per-learn numbers of the traced run.
struct TracedSample {
  LayerStats layers;
  double learn_s = 0.0;   ///< the plain learn
  double traced_s = 0.0;  ///< the replay of the same learn
};

struct LayerMetric {
  const char* name;
  const char* unit;
  double (*get)(const TracedSample&);
};

// The per-layer metrics, in layer order (README.md has the table).
const LayerMetric kLayerMetrics[] = {
    {"ingest.s", "s", [](const TracedSample& s) { return s.layers.ingest_s; }},
    {"ingest.events", "count",
     [](const TracedSample& s) { return double(s.layers.ingest_events); }},
    {"ingest.shards", "count",
     [](const TracedSample& s) { return double(s.layers.ingest_shards); }},
    {"abstraction.s", "s", [](const TracedSample& s) { return s.layers.abstraction_s; }},
    {"abstraction.steps", "count",
     [](const TracedSample& s) { return double(s.layers.abstraction_steps); }},
    {"abstraction.preds", "count",
     [](const TracedSample& s) { return double(s.layers.abstraction_preds); }},
    {"segmentation.s", "s", [](const TracedSample& s) { return s.layers.segmentation_s; }},
    {"segmentation.segments", "count",
     [](const TracedSample& s) { return double(s.layers.segmentation_segments); }},
    {"segmentation.transitions", "count",
     [](const TracedSample& s) { return double(s.layers.segmentation_transitions); }},
    {"compliance.build_s", "s", [](const TracedSample& s) { return s.layers.compliance_build_s; }},
    {"compliance.check_s", "s", [](const TracedSample& s) { return s.layers.compliance_check_s; }},
    {"compliance.checks", "count",
     [](const TracedSample& s) { return double(s.layers.compliance_checks); }},
    {"compliance.invalid_words", "count",
     [](const TracedSample& s) { return double(s.layers.compliance_invalid_words); }},
    {"encode.s", "s", [](const TracedSample& s) { return s.layers.encode_s; }},
    {"encode.builds", "count",
     [](const TracedSample& s) { return double(s.layers.encode_builds); }},
    {"encode.grows", "count", [](const TracedSample& s) { return double(s.layers.encode_grows); }},
    {"encode.clauses", "count",
     [](const TracedSample& s) { return double(s.layers.encode_clauses); }},
    {"encode.vars", "count", [](const TracedSample& s) { return double(s.layers.encode_vars); }},
    {"solve.s", "s", [](const TracedSample& s) { return s.layers.solve_s; }},
    {"solve.calls", "count", [](const TracedSample& s) { return double(s.layers.solve_calls); }},
    {"solve.unsat_calls", "count",
     [](const TracedSample& s) { return double(s.layers.solve_unsat_calls); }},
    {"sat.conflicts", "count",
     [](const TracedSample& s) { return double(s.layers.sat.conflicts); }},
    {"sat.propagations", "count",
     [](const TracedSample& s) { return double(s.layers.sat.propagations); }},
    {"sat.decisions", "count",
     [](const TracedSample& s) { return double(s.layers.sat.decisions); }},
    {"sat.restarts", "count", [](const TracedSample& s) { return double(s.layers.sat.restarts); }},
    {"sat.props_per_conflict", "props/conflict",
     [](const TracedSample& s) {
       return double(s.layers.sat.propagations) /
              double(std::max<std::uint64_t>(s.layers.sat.conflicts, 1));
     }},
    {"sat.learned_clauses", "count",
     [](const TracedSample& s) { return double(s.layers.sat.learned_clauses); }},
    {"sat.reduces", "count", [](const TracedSample& s) { return double(s.layers.sat.reduces); }},
    {"sat.peak_arena_bytes", "bytes",
     [](const TracedSample& s) { return double(s.layers.sat.peak_arena_bytes); }},
    {"preprocess.eliminated_vars", "count",
     [](const TracedSample& s) { return double(s.layers.sat.eliminated_vars); }},
    {"preprocess.subsumed_clauses", "count",
     [](const TracedSample& s) { return double(s.layers.sat.subsumed_clauses); }},
    {"extract.s", "s", [](const TracedSample& s) { return s.layers.extract_s; }},
    {"acceptance.s", "s", [](const TracedSample& s) { return s.layers.acceptance_s; }},
    {"acceptance.blocks", "count",
     [](const TracedSample& s) { return double(s.layers.acceptance_blocks); }},
    {"learner.refinements", "count",
     [](const TracedSample& s) { return double(s.layers.refinements); }},
    {"learner.state_increments", "count",
     [](const TracedSample& s) { return double(s.layers.state_increments); }},
    {"learner.candidate_yield", "fraction",
     [](const TracedSample& s) {
       return double(s.layers.accepted_models) /
              double(std::max<std::uint64_t>(s.layers.sat_candidates, 1));
     }},
    {"learner.other_s", "s",
     [](const TracedSample& s) { return s.learn_s - s.layers.layer_seconds(); }},
    {"traced.overhead_s", "s", [](const TracedSample& s) { return s.traced_s - s.learn_s; }},
};

/// Replays every instance of the workload and compares each replay's N and
/// conflict count with the learner's. Returns the first mismatch.
std::string replay_workload(const Workload& workload, const LearnRun& learned,
                            TracedSample& sample) {
  std::string mismatch;
  const t2m::Stopwatch watch;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    const t2mbench::Instance& instance = workload[i];
    const t2mbench::ReplayOutcome replayed = t2mbench::replay_instance(instance, sample.layers);
    const Verdict& learner = learned.verdicts[i];
    if (mismatch.empty() &&
        (replayed.success != learner.success || replayed.states != learner.states ||
         replayed.conflicts != learner.conflicts)) {
      mismatch = instance.name + ": replay reached N = " + std::to_string(replayed.states) +
                 " with " + std::to_string(replayed.conflicts) + " conflicts, the learner N = " +
                 std::to_string(learner.states) + " with " + std::to_string(learner.conflicts);
    }
  }
  sample.traced_s = watch.elapsed_seconds();
  sample.learn_s = learned.wall_s;
  return mismatch;
}

void print_result(const Tally& tally, bool correct, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

int run(const Args& args) {
  Tally tally;
  std::vector<double> setup_samples;
  Workload workload;
  const t2m::Stopwatch setup_clock;
  while (setup_samples.size() < kMinSetups ||
         (setup_samples.size() < kMaxSetups && setup_clock.elapsed_seconds() < kSetupSeconds)) {
    workload = {};  // the previous setup's inputs must not raise the peak
    const t2m::Stopwatch watch;
    workload = t2mbench::make_workload(args.workload, args.seed, args.dir);
    const double generate_s = watch.elapsed_seconds();
    setup_samples.push_back(generate_s + learn_workload(workload, tally).wall_s);  // warm-up
  }
  const double setup_s = median(setup_samples);

  std::vector<double> walls;
  std::vector<std::vector<double>> instance_walls(workload.size());
  std::vector<std::vector<double>> instance_cpus(workload.size());
  std::vector<TracedSample> samples;
  std::string mismatch;
  const t2m::Stopwatch clock;
  for (std::size_t i = 0; clock.elapsed_seconds() < args.seconds || i < kMinLearns; ++i) {
    const LearnRun learned = learn_workload(workload, tally);
    walls.push_back(learned.wall_s);
    for (std::size_t k = 0; k < workload.size(); ++k) {
      instance_walls[k].push_back(learned.instance_wall_s[k]);
      instance_cpus[k].push_back(learned.instance_cpu_s[k]);
    }
    if (args.trace) {
      TracedSample sample;
      const std::string m = replay_workload(workload, learned, sample);
      if (mismatch.empty()) mismatch = m;
      samples.push_back(std::move(sample));
    }
  }
  const double learn_s = fastest_pass(instance_walls);
  for (const t2mbench::Instance& instance : workload) {
    if (!instance.ftrace_path.empty()) std::remove(instance.ftrace_path.c_str());
  }

  std::cout << "t2m_bench " << args.workload << " seed " << args.seed << ": " << walls.size()
            << " timed learns in " << number(clock.elapsed_seconds()) << " s, "
            << tally.attempted << " learns checked; median learn " << number(median(walls))
            << " s\n";
  if (!tally.first_failure.empty()) {
    std::cout << "verdict check failed: " << tally.first_failure << "\n";
  }
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {{"learn_s", "s", learn_s},
               {"cpu_s", "s", fastest_pass(instance_cpus)},
               {"peak_rss_mb", "MiB", peak_rss_mib()},
               {"setup_s", "s", setup_s}};
    for (const Metric& m : metrics) {
      std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit << "\n";
    }
    std::cout << "  failed_share = " << number(double(tally.failed) / double(tally.attempted))
              << " fraction (" << tally.failed << " of " << tally.attempted << ")\n";
  } else if (!mismatch.empty()) {
    // Layer numbers from a loop that diverged from the learner's would
    // describe a different program: report the run as failed instead.
    std::cout << "replay diverged from the learner: " << mismatch << "\n";
    ++tally.failed;
    print_result(tally, false, {});
    return 1;
  } else {
    for (const LayerMetric& lm : kLayerMetrics) {
      std::vector<double> values;
      for (const TracedSample& s : samples) values.push_back(lm.get(s));
      metrics.push_back({lm.name, lm.unit, median(values)});
    }
    std::vector<double> traced;
    for (const TracedSample& s : samples) traced.push_back(s.traced_s);
    const double traced_total = median(traced);
    std::cout << "  traced total " << number(traced_total) << " s, plain learn "
              << number(median(walls)) << " s (medians)\n";
    for (const Metric& m : metrics) {
      std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit;
      if (m.unit == "s" && traced_total > 0.0) {
        std::cout << " (" << number(100.0 * m.value / traced_total) << "% of traced total)";
      }
      std::cout << "\n";
    }
  }
  const bool correct = tally.failed == 0;
  print_result(tally, correct, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "t2m_bench: " << e.what() << "\n";
    return 2;
  }
}
