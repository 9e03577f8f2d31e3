#include "verify.h"

#include <set>

namespace t2mbench {

namespace {

std::string describe(const std::vector<t2m::PredId>& word) {
  std::string out = "[";
  for (std::size_t i = 0; i < word.size(); ++i) {
    if (i > 0) out += " ";
    out += std::to_string(word[i]);
  }
  return out + "]";
}

/// The distinct length-`len` windows of `seq`.
std::set<std::vector<t2m::PredId>> windows_of(const std::vector<t2m::PredId>& seq,
                                              std::size_t len) {
  std::set<std::vector<t2m::PredId>> out;
  for (std::size_t i = 0; i + len <= seq.size(); ++i) {
    out.emplace(seq.begin() + static_cast<std::ptrdiff_t>(i),
                seq.begin() + static_cast<std::ptrdiff_t>(i + len));
  }
  return out;
}

}  // namespace

std::string check_model(const t2m::Nfa& model, const std::vector<t2m::PredId>& seq,
                        const t2m::LearnerConfig& config) {
  const std::size_t n = model.num_states();
  if (n == 0) return "the model has no states";
  if (seq.empty()) return "the learned predicate sequence is empty";
  std::vector<std::vector<t2m::Transition>> out(n);
  for (const t2m::Transition& t : model.transitions()) {
    if (t.src >= n || t.dst >= n) return "a transition leaves the state range";
    out[t.src].push_back(t);
  }

  // Compliance: every length-l path of the model is a window of P.
  const std::size_t l = config.compliance_length;
  if (l > 0 && seq.size() >= l) {
    const std::set<std::vector<t2m::PredId>> trace_windows = windows_of(seq, l);
    std::vector<t2m::PredId> word;
    std::vector<t2m::PredId> missing;
    const auto walk = [&](const auto& self, t2m::StateId s) -> bool {
      if (word.size() == l) {
        if (trace_windows.count(word) != 0) return true;
        missing = word;
        return false;
      }
      for (const t2m::Transition& t : out[s]) {
        word.push_back(t.pred);
        const bool ok = self(self, t.dst);
        word.pop_back();
        if (!ok) return false;
      }
      return true;
    };
    for (t2m::StateId s = 0; s < n; ++s) {
      if (!walk(walk, s)) {
        return "model path " + describe(missing) + " from state " + std::to_string(s) +
               " is not a window of the trace";
      }
    }
  }

  // Embedding: every segment runs from some state.
  std::set<t2m::StateId> all_states;
  for (t2m::StateId s = 0; s < n; ++s) all_states.insert(s);
  const std::size_t w = config.window;
  if (!config.segmented || seq.size() <= w) {
    if (!model.accepts_from(all_states, seq)) return "the whole sequence does not embed";
  } else {
    for (const std::vector<t2m::PredId>& segment : windows_of(seq, w)) {
      if (!model.accepts_from(all_states, segment)) {
        return "segment " + describe(segment) + " does not embed";
      }
    }
  }

  if (config.require_trace_acceptance && !model.accepts(seq)) {
    return "the model does not replay the trace from its initial state";
  }
  return {};
}

std::string check_verdict(const t2m::LearnResult& result, const Instance& instance) {
  const std::string where = instance.name + ": ";
  if (!result.success) return where + "no verdict (" + result.status.to_string() + ")";
  if (result.model.num_states() != result.states) {
    return where + "model has " + std::to_string(result.model.num_states()) +
           " states, verdict says " + std::to_string(result.states);
  }
  if (instance.pinned_states != 0 && result.states != instance.pinned_states) {
    return where + "N = " + std::to_string(result.states) + ", expected " +
           std::to_string(instance.pinned_states);
  }
  if (result.preds.seq.size() != result.stats.sequence_length) {
    return where + "the verdict does not carry its predicate sequence";
  }
  // An event log of k events abstracts to k - 1 steps: a dropped or
  // duplicated line shows here.
  if (!instance.ftrace_path.empty() && result.stats.sequence_length + 1 != instance.events) {
    return where + std::to_string(instance.events) + " events logged, " +
           std::to_string(result.stats.sequence_length) + " steps learned";
  }
  const std::string failure = check_model(result.model, result.preds.seq, instance.config);
  return failure.empty() ? failure : where + failure;
}

}  // namespace t2mbench
