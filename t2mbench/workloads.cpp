#include "workloads.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <stdexcept>

#include "src/sim/basic/counter.h"
#include "src/sim/basic/integrator.h"
#include "src/sim/rtlinux/workloads.h"
#include "src/sim/serial/serial_port.h"
#include "src/sim/xhci/ring_interface.h"
#include "src/sim/xhci/slot_fsm.h"
#include "src/trace/ftrace_io.h"

namespace t2mbench {

namespace {

using t2m::DeterminismEncoding;
using t2m::LearnerConfig;

constexpr std::size_t kSchedEvents = 20165;
constexpr std::size_t kFtraceEvents = 1000000;
/// rtlinux_search learns this many seeded traces per pass: one trace's
/// search effort swings with its seed, a whole pool's barely does.
constexpr std::size_t kRtlinuxPool = 32;
/// Worker threads of the threaded workloads (the box has 4 cores).
constexpr std::size_t kThreads = 2;

/// The Fig-6 full-coverage scheduler load with its seed shifted by `offset`;
/// offset 0 is the repository's default trace.
t2m::sim::SchedulerSimConfig sched_config(std::size_t events, std::uint64_t offset) {
  t2m::sim::SchedulerSimConfig config = t2m::sim::pi_stress_with_corner_module(events);
  config.seed += offset;
  return config;
}

/// Table 1, unsegmented column: successor encoding, star compression and
/// preprocessing, a fresh CSP per N starting at the known N, no acceptance.
LearnerConfig full_trace_config(std::size_t known_states) {
  LearnerConfig config;
  config.segmented = false;
  config.initial_states = known_states;
  config.require_trace_acceptance = false;
  config.persistent_solver = false;
  config.encoding = DeterminismEncoding::Successor;
  config.compress_forbidden = true;
  config.preprocess = true;
  config.threads = kThreads;
  return config;
}

/// Table 1, segmented column, paper-faithful: pairwise determinism, direct
/// forbidden binaries, a fresh CSP per N starting at the known N.
LearnerConfig segmented_config(std::size_t known_states,
                               std::vector<std::string> input_vars) {
  LearnerConfig config;
  config.segmented = true;
  config.initial_states = known_states;
  config.abstraction.input_vars = std::move(input_vars);
  config.require_trace_acceptance = false;
  config.persistent_solver = false;
  config.encoding = DeterminismEncoding::Pairwise;
  config.compress_forbidden = false;
  return config;
}

Instance trace_instance(std::string name, LearnerConfig config, t2m::Trace trace,
                        std::size_t pinned_states) {
  Instance instance;
  instance.name = std::move(name);
  instance.config = std::move(config);
  instance.events = trace.size();
  instance.trace = std::move(trace);
  instance.pinned_states = pinned_states;
  return instance;
}

/// Writes the scheduler trace as an ftrace log from a forked child and
/// returns its event count. The 1M-event trace exists only in the child,
/// so it does not inflate the measuring process's peak RSS.
std::size_t write_sched_ftrace(const t2m::sim::SchedulerSimConfig& config,
                               const std::string& path) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    std::uint64_t events = 0;
    try {
      const t2m::Trace trace = t2m::sim::generate_sched_trace(config);
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      t2m::write_ftrace(out, trace);
      out.close();
      // Flush the log to disk now: left to background writeback, it would
      // be written out during the timed learns, up to 30 s later.
      const int fd = out ? open(path.c_str(), O_RDONLY) : -1;
      if (fd >= 0 && fsync(fd) == 0) events = trace.size();
      if (fd >= 0) close(fd);
    } catch (...) {
      events = 0;
    }
    const bool sent = write(fds[1], &events, sizeof events) == sizeof events;
    _exit(sent && events > 0 ? 0 : 1);
  }
  close(fds[1]);
  std::uint64_t events = 0;
  const bool received = read(fds[0], &events, sizeof events) == sizeof events;
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!received || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("writing the ftrace log " + path + " failed");
  }
  return events;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"kernel_full", "table1_seg",
                                                 "rtlinux_search", "ftrace_1m"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed, const std::string& dir) {
  namespace sim = t2m::sim;
  const bool pin = seed == kDefaultSeed;
  Workload w;
  if (name == "kernel_full") {
    // The Table-1 Linux-Kernel row itself. Its unsegmented search effort is
    // chaotic in the trace (894 to 33504 conflicts over sched seeds 43..55),
    // so the seed does not move this one input: see README.md.
    w.push_back(trace_instance(
        "Linux Kernel/full", full_trace_config(8),
        sim::generate_sched_trace(sched_config(kSchedEvents, 0)), 8));
  } else if (name == "table1_seg") {
    sim::RingInterfaceConfig attach;
    attach.seed += seed;
    sim::SerialPortConfig serial;
    serial.seed += seed;
    sim::IntegratorConfig integrator;
    integrator.seed += seed;
    w.push_back(trace_instance("USB Slot", segmented_config(4, {}),
                                  sim::generate_slot_trace(), 4));
    w.push_back(trace_instance("USB Attach", segmented_config(7, {}),
                                  sim::generate_usb_attach_trace(attach), pin ? 8 : 0));
    w.push_back(trace_instance("Counter", segmented_config(4, {}),
                                  sim::generate_counter_trace({}), 4));
    w.push_back(trace_instance("Serial I/O Port", segmented_config(6, {}),
                                  sim::generate_serial_trace(serial), pin ? 6 : 0));
    w.push_back(trace_instance("Linux Kernel", segmented_config(8, {}),
                                  sim::generate_sched_trace(sched_config(kSchedEvents, seed)),
                                  pin ? 8 : 0));
    w.push_back(trace_instance("Integrator",
                                  segmented_config(3, {sim::integrator_input_var()}),
                                  sim::generate_integrator_trace(integrator), pin ? 3 : 0));
  } else if (name == "rtlinux_search") {
    // One learn is a pass over the pool; trace 0 of the default seed is
    // the Fig-6 trace.
    for (std::size_t k = 0; k < kRtlinuxPool; ++k) {
      const std::uint64_t offset = seed * kRtlinuxPool + k;
      w.push_back(trace_instance(
          "rtlinux/sched seed " + std::to_string(sched_config(0, offset).seed),
          LearnerConfig{}, sim::generate_sched_trace(sched_config(kSchedEvents, offset)),
          pin && k == 0 ? 7 : 0));
    }
  } else if (name == "ftrace_1m") {
    Instance instance;
    instance.name = "ftrace 1M";
    instance.config.threads = kThreads;
    instance.ftrace_path = dir + "/sched_1m.ftrace";
    instance.events =
        write_sched_ftrace(sched_config(kFtraceEvents, seed), instance.ftrace_path);
    instance.pinned_states = pin ? 7 : 0;
    w.push_back(std::move(instance));
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

t2m::LearnResult learn_instance(const Instance& instance) {
  const t2m::ModelLearner learner(instance.config);
  return instance.ftrace_path.empty() ? learner.learn(instance.trace)
                                      : learner.learn_from_ftrace(instance.ftrace_path);
}

}  // namespace t2mbench
