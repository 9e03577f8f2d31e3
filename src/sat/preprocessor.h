#ifndef T2M_SAT_PREPROCESSOR_H
#define T2M_SAT_PREPROCESSOR_H

#include <cstdint>
#include <vector>

#include "src/sat/cnf.h"
#include "src/sat/solver.h"
#include "src/util/stopwatch.h"

namespace t2m::sat {

/// Knobs for Solver::preprocess(). The occurrence limits are the standard
/// SatELite guards against quadratic blow-up on very frequent literals; the
/// defaults are sized for the CSP encodings this repo produces (millions of
/// mostly-binary clauses over a few hot guard literals).
struct PreprocessOptions {
  bool subsumption = true;       ///< remove clauses implied by a subset clause
  bool strengthen = true;        ///< self-subsuming resolution (literal removal)
  bool bve = true;               ///< bounded variable elimination
  std::size_t max_rounds = 3;    ///< outer subsume/strengthen + BVE iterations
  /// Literals whose occurrence list is longer than this are never used to
  /// seed a subsumption walk or a strengthening scan.
  std::size_t max_occurrences = 400;
  /// Variables occurring (either polarity) more often than this are never
  /// BVE candidates.
  std::size_t max_var_occurrences = 40;
  /// An elimination producing any resolvent longer than this is skipped.
  std::size_t max_resolvent_size = 64;
  /// Allowed growth in clause count per elimination (0 = SatELite's
  /// "never more clauses than before" rule).
  std::size_t grow = 0;
  /// Upper bound on subset-check work across the whole run; preprocessing
  /// stops early (soundly) when exhausted — and likewise once the solver's
  /// RunBudget (Solver::set_budget) says stop.
  std::uint64_t work_budget = 50'000'000;
};

/// SatELite-style CNF preprocessor operating on a Solver's root-level
/// database: occurrence-list backward subsumption, self-subsuming
/// resolution, and bounded variable elimination with model reconstruction.
///
/// Soundness contract (see docs/preprocessing.md):
///  - Variables the owner reads back, assumes, or will mention in later
///    add_clause() calls must be frozen (Solver::freeze) beforehand; frozen
///    and root-assigned variables are never eliminated.
///  - Subsumption and strengthening preserve logical equivalence exactly.
///  - Elimination preserves equisatisfiability; the eliminated variable's
///    clauses are stashed and Solver::reconstruct_model() extends any model
///    of the reduced formula back over the eliminated variables.
///  - Width-taint flags propagate: a strengthened clause or resolvent is
///    tainted iff any clause it was derived from was.
///
/// Invoked via Solver::preprocess(); the class is separate so the occurrence
/// index and work queues don't live inside the solver between calls.
class Preprocessor {
public:
  Preprocessor(Solver& solver, const PreprocessOptions& opts);

  /// Runs the configured passes and writes the reduced database back into
  /// the solver. Returns false if the instance was proven unsatisfiable.
  bool run();

private:
  // Working representation: every clause (including the root trail, carried
  // as unit clauses so units subsume and strengthen uniformly) as a sorted
  // literal vector plus a 64-bit variable-signature for cheap non-subset
  // rejection.
  struct PClause {
    Clause lits;  // sorted by Lit order, duplicate-free
    std::uint64_t sig = 0;
    bool tainted = false;
    bool deleted = false;
  };

  static std::uint64_t signature(const Clause& lits);
  bool contains(const PClause& c, Lit l) const;
  /// True when a ⊆ b (both sorted).
  static bool subset(const Clause& a, const Clause& b);

  void snapshot();
  bool subsume_and_strengthen();
  bool strengthen_clause(std::size_t target, Lit remove, bool from_tainted);
  bool eliminate_variables();
  bool try_eliminate(Var v);
  bool resolve(const PClause& a, const PClause& b, Var v, Clause& out) const;
  void add_derived_clause(Clause lits, bool tainted);
  bool writeback();

  std::vector<std::uint32_t>& occ(Lit l) {
    return occur_[static_cast<std::size_t>(l.code())];
  }

  /// Proof-trace hooks (no-ops when the owning solver has no proof sink).
  /// Every derivation the passes make is logged in dependency order: a
  /// strengthened clause or resolvent is added (checkably) before the
  /// clauses it was derived from are deleted.
  void log_derived(const Clause& lits);
  void log_deleted(const Clause& lits);

  Solver& s_;
  const PreprocessOptions& opts_;
  std::vector<PClause> clauses_;
  std::vector<std::vector<std::uint32_t>> occur_;  // by literal code
  std::vector<std::uint32_t> queue_;               // subsumption worklist
  std::vector<char> queued_;
  /// Polls the solver's budget (the clock every 256th call); a stop is
  /// turned into work-budget exhaustion, the sound early stop every pass
  /// already honours.
  BudgetPoll budget_poll_;

  std::vector<char> var_gone_;  // eliminated during this run
  std::vector<Solver::ElimRecord> stash_;
  std::uint64_t work_ = 0;
  bool unsat_ = false;
  std::uint64_t subsumed_ = 0;
  std::uint64_t strengthened_ = 0;
  std::uint64_t eliminated_ = 0;
};

}  // namespace t2m::sat

#endif  // T2M_SAT_PREPROCESSOR_H
