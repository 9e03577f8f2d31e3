// Workloads of the t2m time-to-model benchmark: the learner inputs each one
// generates from the bench seed, and the configuration it learns them under.
#ifndef T2MBENCH_WORKLOADS_H
#define T2MBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/learner.h"
#include "src/trace/trace.h"

namespace t2mbench {

/// Bench seed that reproduces the repository's default traces (the paper's
/// rows); the learned state counts are pinned at this seed.
inline constexpr std::uint64_t kDefaultSeed = 0;

/// One learner input and the configuration it is learned under.
struct Instance {
  std::string name;
  t2m::LearnerConfig config;
  t2m::Trace trace;              ///< in-memory input (unused with ftrace_path)
  std::string ftrace_path;       ///< on-disk ftrace log, learned by learn_from_ftrace
  std::size_t events = 0;        ///< events in the input
  std::size_t pinned_states = 0; ///< N the learn must reach; 0 = not pinned
};

/// A workload's inputs: the instances one closed-loop request learns back to
/// back. That is one instance, the six Table-1 rows of table1_seg, or
/// rtlinux_search's pool of traces.
using Workload = std::vector<Instance>;

/// kernel_full, table1_seg, rtlinux_search, ftrace_1m.
const std::vector<std::string>& workload_names();

/// Generates the named workload's inputs from `seed`. On-disk inputs are
/// written below `dir`, by a child process so that the generator's memory
/// never counts towards this process's peak. Throws std::invalid_argument
/// for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, const std::string& dir);

/// Learns one instance through the public ModelLearner entry point.
t2m::LearnResult learn_instance(const Instance& instance);

}  // namespace t2mbench

#endif  // T2MBENCH_WORKLOADS_H
