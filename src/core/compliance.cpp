#include "src/core/compliance.h"

#include <algorithm>
#include <span>

#include "src/automaton/ops.h"
#include "src/obs/trace.h"
#include "src/parallel/thread_pool.h"
#include "src/util/hash.h"

namespace t2m {

namespace {

/// The DFS's budget poll, once per leaf word with a clock
/// read every 4096th; a stop throws the structured verdict that cancels the
/// whole check (the parallel path rethrows it from TaskGroup::wait()).
constexpr std::uint64_t kLeafPollInterval = 4096;
constexpr const char* kComplianceSite = "compliance check";

}  // namespace

ComplianceChecker::ComplianceChecker(const std::vector<PredId>& seq, std::size_t l)
    : l_(l) {
  if (l > 0) windows_ = subwindows<PredId>(std::span(&seq, 1), l);
}

void ComplianceChecker::check_range(const Adjacency& adj, StateId lo, StateId hi,
                                    const RunBudget& budget, WindowIndex<PredId>& seen,
                                    std::set<std::vector<PredId>>& invalid) const {
  // The path's word grows one edge at a time together with its polynomial
  // hash, so a leaf word is deduplicated and looked up in P_l by its window
  // hash directly; only new words are copied and only missing ones kept.
  std::vector<PredId> prefix;
  prefix.reserve(l_);
  const auto is_prefix = [&](const std::vector<PredId>& held) { return held == prefix; };
  BudgetPoll poll(budget, kLeafPollInterval);
  const auto dfs = [&](auto&& self, StateId state, std::uint64_t poly) -> void {
    if (prefix.size() == l_) {
      poll.check(kComplianceSite);
      const std::uint64_t hash = hash_mix(poly);
      if (seen.insert(hash, is_prefix, [&] { return prefix; }) &&
          !windows_.contains(hash, is_prefix)) {
        invalid.insert(prefix);
      }
      return;
    }
    for (const auto& [pred, dst] : adj[state]) {
      prefix.push_back(pred);
      self(self, dst, poly * kPolyHashBase + static_cast<std::uint64_t>(pred));
      prefix.pop_back();
    }
  };
  for (StateId s = lo; s < hi; ++s) dfs(dfs, s, 0);
}

ComplianceResult ComplianceChecker::check(const Nfa& model,
                                          const RunBudget& budget) const {
  T2M_SPAN_SCOPE(check_span, "compliance.check", "states", model.num_states());
  ComplianceResult result;
  result.trace_sequences = windows_.size();

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
  std::vector<WindowIndex<PredId>> seen(chunks);
  par::for_chunks(threads_, n_states, chunks,
                  [&](std::size_t c, std::size_t lo, std::size_t hi) {
                    T2M_SPAN("compliance.chunk", "chunk", c, "states", hi - lo);
                    check_range(adj, lo, hi, budget, seen[c], invalid[c]);
                  });
  for (std::size_t c = 1; c < chunks; ++c) {
    for (const std::vector<PredId>& word : seen[c].windows()) {
      seen[0].insert(
          window_hash(word.begin(), word.end()),
          [&](const std::vector<PredId>& held) { return held == word; }, [&] { return word; });
    }
    invalid[0].merge(invalid[c]);
  }
  result.model_sequences = seen[0].size();
  result.invalid_sequences = std::move(invalid[0]);

  result.compliant = result.invalid_sequences.empty();
  check_span.arg("compliant", result.compliant);
  check_span.arg("invalid_sequences", result.invalid_sequences.size());
  return result;
}

ComplianceResult check_compliance(const Nfa& model, const std::vector<PredId>& seq,
                                  std::size_t l) {
  return ComplianceChecker(seq, l).check(model);
}

}  // namespace t2m
