#include "src/automaton/nfa.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace t2m {

Nfa::Nfa(std::size_t num_states, StateId initial)
    : num_states_(num_states), initial_(initial) {
  if (num_states_ == 0) throw std::invalid_argument("Nfa: need at least one state");
  if (initial_ >= num_states_) throw std::invalid_argument("Nfa: initial state out of range");
}

void Nfa::set_initial(StateId s) {
  if (s >= num_states_) throw std::invalid_argument("Nfa::set_initial: out of range");
  initial_ = s;
}

void Nfa::add_transition(StateId src, PredId pred, StateId dst) {
  num_states_ = std::max(num_states_, std::max(src, dst) + 1);
  const Transition t{src, pred, dst};
  if (std::find(transitions_.begin(), transitions_.end(), t) == transitions_.end()) {
    transitions_.push_back(t);
  }
}

std::string Nfa::pred_name(PredId p) const {
  if (p < pred_names_.size()) return pred_names_[p];
  // Built via += rather than "p" + to_string(p): GCC 12's -Wrestrict
  // false-fires on the temporary-concatenation form at -O2 (PR105651).
  std::string name = "p";
  name += std::to_string(p);
  return name;
}

std::vector<StateId> Nfa::successors(StateId src, PredId pred) const {
  std::vector<StateId> out;
  for (const Transition& t : transitions_) {
    if (t.src == src && t.pred == pred) out.push_back(t.dst);
  }
  return out;
}

std::vector<std::size_t> Nfa::transitions_from(StateId src) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    if (transitions_[i].src == src) out.push_back(i);
  }
  return out;
}

bool Nfa::deterministic_per_predicate() const {
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    for (std::size_t j = i + 1; j < transitions_.size(); ++j) {
      if (transitions_[i].src == transitions_[j].src &&
          transitions_[i].pred == transitions_[j].pred &&
          transitions_[i].dst != transitions_[j].dst) {
        return false;
      }
    }
  }
  return true;
}

bool Nfa::accepts(std::span<const PredId> word) const {
  return accepts_from({initial_}, word);
}

bool Nfa::accepts_from(const std::set<StateId>& start, std::span<const PredId> word) const {
  if (word.empty()) return true;
  // Group the transitions by predicate once, so each step scans only the
  // transitions its symbol labels.
  std::unordered_map<PredId, std::vector<Transition>> by_pred;
  for (const Transition& t : transitions_) by_pred[t.pred].push_back(t);
  // The frontier as per-state stamps in two arrays swapped each step: state
  // s is in the frontier of step k when its stamp is k, so neither array is
  // ever cleared. A start id at or beyond num_states_ has no outgoing
  // transition, so leaving it out changes no verdict.
  std::vector<std::size_t> frontier(num_states_, 0);
  std::vector<std::size_t> next(num_states_, 0);
  std::size_t step = 1;
  for (const StateId s : start) {
    if (s < num_states_) frontier[s] = step;
  }
  for (const PredId symbol : word) {
    const auto labelled = by_pred.find(symbol);
    if (labelled == by_pred.end()) return false;  // the symbol labels no transition
    bool alive = false;
    for (const Transition& t : labelled->second) {
      if (frontier[t.src] == step) {
        next[t.dst] = step + 1;
        alive = true;
      }
    }
    if (!alive) return false;
    frontier.swap(next);
    ++step;
  }
  return true;
}

std::set<StateId> Nfa::reachable_states() const {
  std::set<StateId> seen = {initial_};
  std::vector<StateId> stack = {initial_};
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (const Transition& t : transitions_) {
      if (t.src == s && seen.insert(t.dst).second) stack.push_back(t.dst);
    }
  }
  return seen;
}

std::set<PredId> Nfa::used_predicates() const {
  std::set<PredId> out;
  for (const Transition& t : transitions_) out.insert(t.pred);
  return out;
}

}  // namespace t2m
