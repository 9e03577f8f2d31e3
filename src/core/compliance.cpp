#include "src/core/compliance.h"

#include <algorithm>
#include <bit>

#include "src/automaton/ops.h"
#include "src/obs/trace.h"
#include "src/parallel/thread_pool.h"

namespace t2m {

namespace {

/// The budget poll shared by both DFS paths, once per leaf word with a clock
/// read every 4096th; a stop throws the structured verdict that cancels the
/// whole check (the parallel path rethrows it from TaskGroup::wait()).
constexpr std::uint64_t kLeafPollInterval = 4096;
constexpr const char* kComplianceSite = "compliance check";

}  // namespace

std::uint64_t ComplianceChecker::pack_word(const std::vector<PredId>& word) const {
  std::uint64_t key = 0;
  for (const PredId p : word) {
    key = ((key << bits_) | static_cast<std::uint64_t>(p)) & mask_;
  }
  return key;
}

ComplianceChecker::ComplianceChecker(const std::vector<PredId>& seq, std::size_t l)
    : l_(l) {
  ComplianceWindowBuilder builder(l);
  for (const PredId p : seq) builder.push(p);
  *this = builder.finish();
}

bool ComplianceChecker::packed_usable(const Nfa& model) const {
  if (!packed_) return false;
  // Every model predicate must fit the per-id bit budget, or packed keys
  // would alias distinct words.
  const std::uint64_t limit = bits_ >= 64 ? ~0ULL : (1ULL << bits_);
  for (const Transition& t : model.transitions()) {
    if (static_cast<std::uint64_t>(t.pred) >= limit) return false;
  }
  return true;
}

void ComplianceChecker::check_packed_range(
    const std::vector<std::vector<std::pair<PredId, StateId>>>& adj, StateId lo,
    StateId hi, const RunBudget& budget, std::unordered_set<std::uint64_t>& seen,
    std::set<std::vector<PredId>>& invalid) const {
  // Streaming DFS over packed keys: dedup and membership are both O(1)
  // integer hashing; only missing words are materialised.
  std::vector<PredId> prefix;
  prefix.reserve(l_);
  BudgetPoll poll(budget, kLeafPollInterval);
  const auto dfs = [&](auto&& self, StateId state, std::uint64_t key) -> void {
    if (prefix.size() == l_) {
      poll.check(kComplianceSite);
      if (seen.insert(key).second && packed_windows_.count(key) == 0) {
        invalid.insert(prefix);
      }
      return;
    }
    for (const auto& [pred, dst] : adj[state]) {
      prefix.push_back(pred);
      self(self, dst, ((key << bits_) | static_cast<std::uint64_t>(pred)) & mask_);
      prefix.pop_back();
    }
  };
  for (StateId s = lo; s < hi; ++s) dfs(dfs, s, 0);
}

void ComplianceChecker::check_vec_range(
    const std::vector<std::vector<std::pair<PredId, StateId>>>& adj, StateId lo,
    StateId hi, const RunBudget& budget,
    std::unordered_set<std::vector<PredId>, VectorHash>& seen,
    std::set<std::vector<PredId>>& invalid) const {
  // Generic path: hashed vector keys. Taken when windows exceed 64 bits
  // or a model predicate is outside the trace's id range.
  std::vector<PredId> prefix;
  prefix.reserve(l_);
  const auto in_trace = [this](const std::vector<PredId>& word) {
    if (!packed_) return vec_windows_.count(word) != 0;
    std::uint64_t key = 0;
    const std::uint64_t limit = bits_ >= 64 ? ~0ULL : (1ULL << bits_);
    for (const PredId p : word) {
      if (static_cast<std::uint64_t>(p) >= limit) return false;  // never seen in trace
      key = ((key << bits_) | static_cast<std::uint64_t>(p)) & mask_;
    }
    return packed_windows_.count(key) != 0;
  };
  BudgetPoll poll(budget, kLeafPollInterval);
  const auto dfs = [&](auto&& self, StateId state) -> void {
    if (prefix.size() == l_) {
      poll.check(kComplianceSite);
      if (seen.insert(prefix).second && !in_trace(prefix)) {
        invalid.insert(prefix);
      }
      return;
    }
    for (const auto& [pred, dst] : adj[state]) {
      prefix.push_back(pred);
      self(self, dst);
      prefix.pop_back();
    }
  };
  for (StateId s = lo; s < hi; ++s) dfs(dfs, s);
}

namespace {

/// Folds per-chunk accumulators into the result in chunk (= state) order:
/// distinct-word count is the union of the seen sets, missing words the
/// union of the (ordered) invalid sets. One definition for both window
/// representations, so the two DFS paths cannot drift apart.
template <typename SeenSet>
void merge_chunk_results(std::vector<SeenSet>& seen,
                         std::vector<std::set<std::vector<PredId>>>& invalid,
                         ComplianceResult& result) {
  for (std::size_t c = 1; c < seen.size(); ++c) {
    seen[0].insert(seen[c].begin(), seen[c].end());
  }
  result.model_sequences = seen[0].size();
  result.invalid_sequences = std::move(invalid[0]);
  for (std::size_t c = 1; c < invalid.size(); ++c) {
    result.invalid_sequences.merge(invalid[c]);
  }
}

}  // namespace

ComplianceResult ComplianceChecker::check(const Nfa& model,
                                          const RunBudget& budget) const {
  T2M_SPAN_SCOPE(check_span, "compliance.check", "states", model.num_states());
  ComplianceResult result;
  result.trace_sequences = trace_windows_;

  const auto adj = out_edges(model);
  const std::size_t n_states = model.num_states();
  const std::size_t chunks =
      threads_ <= 1 ? 1 : std::min(threads_, std::max<std::size_t>(n_states, 1));

  // Each chunk DFSes its start-state range into private accumulators; the
  // merge is a set union in chunk (= state) order, which by set semantics
  // yields exactly the sequential single-range result: a word reached from
  // start states in two chunks is classified identically by both, and
  // invalid_sequences is an ordered set either way.
  std::vector<std::set<std::vector<PredId>>> invalid(chunks);
  if (packed_usable(model)) {
    std::vector<std::unordered_set<std::uint64_t>> seen(chunks);
    par::for_chunks(threads_, n_states, chunks,
                    [&](std::size_t c, std::size_t lo, std::size_t hi) {
                      T2M_SPAN("compliance.chunk", "chunk", c, "states", hi - lo);
                      check_packed_range(adj, lo, hi, budget, seen[c], invalid[c]);
                    });
    merge_chunk_results(seen, invalid, result);
  } else {
    std::vector<std::unordered_set<std::vector<PredId>, VectorHash>> seen(chunks);
    par::for_chunks(threads_, n_states, chunks,
                    [&](std::size_t c, std::size_t lo, std::size_t hi) {
                      T2M_SPAN("compliance.chunk", "chunk", c, "states", hi - lo);
                      check_vec_range(adj, lo, hi, budget, seen[c], invalid[c]);
                    });
    merge_chunk_results(seen, invalid, result);
  }

  result.compliant = result.invalid_sequences.empty();
  check_span.arg("compliant", result.compliant);
  check_span.arg("invalid_sequences", result.invalid_sequences.size());
  return result;
}

ComplianceWindowBuilder::ComplianceWindowBuilder(std::size_t l)
    : l_(l), dedup_(std::max<std::size_t>(l, 1)) {}

void ComplianceWindowBuilder::push(PredId p) {
  max_pred_ = std::max(max_pred_, p);
  if (l_ == 0) return;  // no windows, as subsequences() has none
  dedup_.push(p);
}

ComplianceChecker ComplianceChecker::from_windows(std::size_t l, std::size_t pushed,
                                                  std::vector<std::vector<PredId>> windows,
                                                  PredId max_pred) {
  ComplianceChecker checker(l);
  // Mirror the original subsequences() edge cases: no windows for l == 0 or
  // a stream shorter than l. The empty window set is served by the generic
  // hashed-vector path; every model word is missing.
  if (l == 0 || pushed < l) return checker;
  // The window representation follows from the largest predicate id seen.
  checker.bits_ = std::max(1u, static_cast<std::uint32_t>(std::bit_width(
                                   static_cast<std::uint64_t>(max_pred))));
  checker.packed_ = checker.bits_ < 64 && l * checker.bits_ <= 64;
  if (checker.packed_) {
    const std::uint32_t width = static_cast<std::uint32_t>(l) * checker.bits_;
    checker.mask_ = width == 64 ? ~0ULL : (1ULL << width) - 1;
    checker.packed_windows_.reserve(windows.size());
    for (const auto& window : windows) {
      checker.packed_windows_.insert(checker.pack_word(window));
    }
  } else {
    checker.vec_windows_.reserve(windows.size());
    for (auto& window : windows) checker.vec_windows_.insert(std::move(window));
  }
  checker.trace_windows_ =
      checker.packed_ ? checker.packed_windows_.size() : checker.vec_windows_.size();
  return checker;
}

ComplianceChecker ComplianceWindowBuilder::finish() {
  // Every stream element is covered by at least one window once count >= l,
  // so the maximum over pushed ids is the maximum over the windows — the
  // packed-representation decision the sharded merge reaches too.
  const std::size_t pushed = dedup_.pushed();
  return ComplianceChecker::from_windows(l_, pushed, dedup_.take_windows(), max_pred_);
}

ComplianceResult check_compliance(const Nfa& model, const std::vector<PredId>& seq,
                                  std::size_t l) {
  return ComplianceChecker(seq, l).check(model);
}

}  // namespace t2m
