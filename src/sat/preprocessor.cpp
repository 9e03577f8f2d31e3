#include "src/sat/preprocessor.h"

#include <algorithm>
#include <cassert>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sat/proof_log.h"
#include "src/util/failpoint.h"

namespace t2m::sat {

// --- Solver entry point ---------------------------------------------------

bool Solver::preprocess(const PreprocessOptions& opts) {
  if (!ok_) return false;
  backtrack(0);
  if (propagate() != kNoReason) {
    set_unsat();
    return false;
  }
  simplify();
  ++stats_.preprocess_rounds;
  Preprocessor pp(*this, opts);
  return pp.run();
}

// --- Preprocessor ---------------------------------------------------------

Preprocessor::Preprocessor(Solver& solver, const PreprocessOptions& opts)
    : s_(solver), opts_(opts), budget_poll_(solver.budget(), 256) {}

void Preprocessor::log_derived(const Clause& lits) {
  if (s_.plog_ != nullptr) s_.plog_->add(lits);
}

void Preprocessor::log_deleted(const Clause& lits) {
  if (s_.plog_ != nullptr) s_.plog_->remove(lits);
}

std::uint64_t Preprocessor::signature(const Clause& lits) {
  std::uint64_t sig = 0;
  for (const Lit l : lits) {
    sig |= 1ULL << (static_cast<std::uint32_t>(l.var()) & 63u);
  }
  return sig;
}

bool Preprocessor::contains(const PClause& c, Lit l) const {
  return std::binary_search(c.lits.begin(), c.lits.end(), l);
}

bool Preprocessor::subset(const Clause& a, const Clause& b) {
  // Both sorted; linear merge walk.
  std::size_t j = 0;
  for (const Lit l : a) {
    while (j < b.size() && b[j] < l) ++j;
    if (j == b.size() || b[j] != l) return false;
    ++j;
  }
  return true;
}

void Preprocessor::snapshot() {
  occur_.assign(2 * s_.num_vars(), {});
  var_gone_.assign(s_.num_vars(), 0);
  clauses_.reserve(s_.problem_clauses_.size());
  Clause lits;
  for (const ClauseRef c : s_.problem_clauses_) {
    if (s_.arena_.deleted(c)) continue;
    const std::size_t size = s_.arena_.size(c);
    lits.clear();
    bool tainted = s_.arena_.tainted(c);
    bool satisfied = false;
    for (std::size_t i = 0; i < size; ++i) {
      const Lit l = s_.arena_.lit(c, i);
      const LBool v = s_.value(l);
      if (v == LBool::True) {
        satisfied = true;  // possible when facts arrived after simplify()
        break;
      }
      if (v == LBool::False) {
        // Stripping a root-false literal resolves against that root fact.
        if (s_.root_tainted(l.var())) tainted = true;
        continue;
      }
      lits.push_back(l);
    }
    if (satisfied) continue;
    std::sort(lits.begin(), lits.end());
    if (lits.empty()) {
      unsat_ = true;
      return;
    }
    const auto idx = static_cast<std::uint32_t>(clauses_.size());
    PClause pc;
    pc.lits = lits;
    pc.sig = signature(lits);
    pc.tainted = tainted;
    clauses_.push_back(std::move(pc));
    for (const Lit l : lits) occ(l).push_back(idx);
  }
  queue_.reserve(clauses_.size());
  queued_.assign(clauses_.size(), 1);
  for (std::uint32_t i = 0; i < clauses_.size(); ++i) queue_.push_back(i);
}

bool Preprocessor::strengthen_clause(std::size_t target, Lit remove, bool from_tainted) {
  PClause& d = clauses_[target];
  Clause before;
  if (s_.plog_ != nullptr) before = d.lits;
  const auto it = std::lower_bound(d.lits.begin(), d.lits.end(), remove);
  assert(it != d.lits.end() && *it == remove);
  d.lits.erase(it);
  d.sig = signature(d.lits);
  if (from_tainted) d.tainted = true;
  ++strengthened_;
  if (d.lits.empty()) {
    // The empty clause itself is logged once, by writeback()'s unsat path;
    // by then the checker has already derived the conflict from the two
    // opposing unit lemmas logged on the way here.
    unsat_ = true;
    return false;
  }
  // Self-subsuming resolution step: the shortened clause is RUP against the
  // seed clause plus this clause's previous logged version, so add it first
  // and retire the previous version after.
  log_derived(d.lits);
  log_deleted(before);
  if (!queued_[target]) {
    queued_[target] = 1;
    queue_.push_back(static_cast<std::uint32_t>(target));
  }
  return true;
}

bool Preprocessor::subsume_and_strengthen() {
  bool changed = false;
  std::size_t head = 0;
  while (head < queue_.size() && work_ < opts_.work_budget && !unsat_) {
    if (budget_poll_()) work_ = opts_.work_budget;
    const std::uint32_t idx = queue_[head++];
    queued_[idx] = 0;
    if (clauses_[idx].deleted) continue;
    // Copy the seed's literals: strengthening other clauses never touches
    // clause `idx`, but clauses_ itself is stable here (no push_back), so a
    // reference is fine.
    const PClause& c = clauses_[idx];

    if (opts_.subsumption) {
      // Backward subsumption seeded from the least-occurring literal.
      Lit best = c.lits[0];
      for (const Lit l : c.lits) {
        if (occ(l).size() < occ(best).size()) best = l;
      }
      for (const std::uint32_t d_idx : occ(best)) {
        if (d_idx == idx) continue;
        PClause& d = clauses_[d_idx];
        if (d.deleted || d.lits.size() < c.lits.size()) continue;
        if ((c.sig & ~d.sig) != 0) continue;
        work_ += c.lits.size();
        if (!subset(c.lits, d.lits)) continue;
        d.deleted = true;
        log_deleted(d.lits);
        ++subsumed_;
        changed = true;
      }
    }

    if (opts_.strengthen) {
      // Self-subsuming resolution: if C with one literal flipped is a subset
      // of D, resolution on that literal shortens D.
      for (std::size_t li = 0; li < c.lits.size() && !unsat_; ++li) {
        const Lit flip = ~c.lits[li];
        auto& candidates = occ(flip);
        if (candidates.size() > opts_.max_occurrences) continue;
        for (const std::uint32_t d_idx : candidates) {
          if (d_idx == idx) continue;
          PClause& d = clauses_[d_idx];
          if (d.deleted || d.lits.size() < c.lits.size()) continue;
          if (!contains(d, flip)) continue;  // stale occurrence
          const std::uint64_t flip_sig = 1ULL << (static_cast<std::uint32_t>(flip.var()) & 63u);
          if ((c.sig & ~(d.sig | flip_sig)) != 0) continue;
          work_ += c.lits.size();
          // Check C \ {l} ∪ {flip} ⊆ D, i.e. every literal of C except
          // position li is in D (flip is, by the occurrence list).
          bool sub = true;
          for (std::size_t k = 0; k < c.lits.size() && sub; ++k) {
            if (k == li) continue;
            if (!contains(d, c.lits[k])) sub = false;
          }
          if (!sub) continue;
          if (!strengthen_clause(d_idx, flip, c.tainted)) return changed;
          changed = true;
        }
      }
    }
  }
  return changed;
}

bool Preprocessor::resolve(const PClause& a, const PClause& b, Var v, Clause& out) const {
  // Resolvent of a (contains v) and b (contains ~v); false when tautological.
  out.clear();
  out.reserve(a.lits.size() + b.lits.size() - 2);
  for (const Lit l : a.lits) {
    if (l.var() != v) out.push_back(l);
  }
  for (const Lit l : b.lits) {
    if (l.var() != v) out.push_back(l);
  }
  std::sort(out.begin(), out.end());
  Lit prev = Lit::undef();
  std::size_t keep = 0;
  for (const Lit l : out) {
    if (l == prev) continue;
    if (!prev.is_undef() && l == ~prev) return false;  // tautology
    out[keep++] = l;
    prev = l;
  }
  out.resize(keep);
  return true;
}

void Preprocessor::add_derived_clause(Clause lits, bool tainted) {
  // Fault-injection site for every derivation the preprocessor produces
  // (BVE resolvents). The learner must turn the escape into a structured
  // failed verdict, never a crash.
  T2M_INJECT_STATUS("preprocess.derive", ErrorCode::internal,
                    "injected preprocessor derivation failure");
  // BVE resolvent: RUP against its two parents, which are still in the
  // checker's database (try_eliminate logs parent deletions only after
  // every resolvent is in).
  log_derived(lits);
  const auto idx = static_cast<std::uint32_t>(clauses_.size());
  PClause pc;
  pc.sig = signature(lits);
  pc.tainted = tainted;
  pc.lits = std::move(lits);
  for (const Lit l : pc.lits) occ(l).push_back(idx);
  clauses_.push_back(std::move(pc));
  queued_.push_back(1);
  queue_.push_back(idx);
}

bool Preprocessor::try_eliminate(Var v) {
  // Gather verified live occurrences of each polarity.
  std::vector<std::uint32_t> pos_idx;
  std::vector<std::uint32_t> neg_idx;
  for (const std::uint32_t i : occ(pos(v))) {
    const PClause& c = clauses_[i];
    if (c.deleted || !contains(c, pos(v))) continue;
    if (pos_idx.size() >= opts_.max_var_occurrences) return false;
    pos_idx.push_back(i);
  }
  for (const std::uint32_t i : occ(neg(v))) {
    const PClause& c = clauses_[i];
    if (c.deleted || !contains(c, neg(v))) continue;
    if (neg_idx.size() >= opts_.max_var_occurrences) return false;
    neg_idx.push_back(i);
  }
  const std::size_t before = pos_idx.size() + neg_idx.size();
  if (before == 0) return false;  // unused var, nothing to do

  // Count (and collect) non-tautological resolvents; bail out when the
  // database would grow or any resolvent is too long.
  std::vector<std::pair<Clause, bool>> resolvents;
  Clause scratch;
  for (const std::uint32_t pi : pos_idx) {
    for (const std::uint32_t ni : neg_idx) {
      work_ += clauses_[pi].lits.size() + clauses_[ni].lits.size();
      if (work_ >= opts_.work_budget) return false;
      if (!resolve(clauses_[pi], clauses_[ni], v, scratch)) continue;
      if (scratch.size() > opts_.max_resolvent_size) return false;
      resolvents.emplace_back(scratch, clauses_[pi].tainted || clauses_[ni].tainted);
      if (resolvents.size() > before + opts_.grow) return false;
    }
  }

  // Commit: stash the originals for model reconstruction, delete them, and
  // install the resolvents.
  Solver::ElimRecord rec;
  rec.var = v;
  rec.clauses.reserve(before);
  for (const std::uint32_t i : pos_idx) {
    rec.clauses.push_back(clauses_[i].lits);
    clauses_[i].deleted = true;
  }
  for (const std::uint32_t i : neg_idx) {
    rec.clauses.push_back(clauses_[i].lits);
    clauses_[i].deleted = true;
  }
  stash_.push_back(std::move(rec));
  for (auto& [lits, tainted] : resolvents) {
    if (lits.empty()) {
      // Empty-clause logging is deferred to writeback(); the checker has
      // already hit the root conflict from the parents' derivations.
      unsat_ = true;
      return true;
    }
    add_derived_clause(std::move(lits), tainted);
  }
  // All resolvents are in the (checker's) database; the parents may go now.
  for (const Clause& parent : stash_.back().clauses) log_deleted(parent);
  var_gone_[static_cast<std::size_t>(v)] = 1;
  ++eliminated_;
  return true;
}

bool Preprocessor::eliminate_variables() {
  // Cheapest-first: candidate variables ordered by total occurrence count so
  // the pure-literal and low-degree wins come before borderline cases.
  std::vector<std::pair<std::size_t, Var>> cands;
  const auto n = static_cast<Var>(s_.num_vars());
  for (Var v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (s_.is_frozen(v) || s_.is_eliminated(v) || var_gone_[vi] != 0) continue;
    if (s_.value(v) != LBool::Undef) continue;  // root-assigned
    const std::size_t occs = occ(pos(v)).size() + occ(neg(v)).size();
    if (occs == 0 || occs > 2 * opts_.max_var_occurrences) continue;
    cands.emplace_back(occs, v);
  }
  std::sort(cands.begin(), cands.end());
  bool changed = false;
  for (const auto& [occs, v] : cands) {
    if (budget_poll_()) work_ = opts_.work_budget;
    if (work_ >= opts_.work_budget || unsat_) break;
    if (try_eliminate(v)) changed = true;
  }
  return changed;
}

bool Preprocessor::writeback() {
  if (unsat_) {
    s_.set_unsat();
    return false;
  }

  // Record the eliminations on the solver.
  for (Var v = 0; v < static_cast<Var>(var_gone_.size()); ++v) {
    if (var_gone_[static_cast<std::size_t>(v)] == 0) continue;
    s_.eliminated_[static_cast<std::size_t>(v)] = 1;
    ++s_.num_eliminated_;
    ++s_.stats_.eliminated_vars;
  }
  for (auto& rec : stash_) s_.elim_stash_.push_back(std::move(rec));
  s_.stats_.subsumed_clauses += subsumed_;
  s_.stats_.strengthened_lits += strengthened_;

  // Rebuild the clause database: fresh arena, fresh watcher lists.
  for (auto& ws : s_.watches_) ws.clear();
  for (const Lit l : s_.trail_) {
    s_.reason_[static_cast<std::size_t>(l.var())] = kClauseRefUndef;
  }
  s_.propagate_head_ = s_.trail_.size();

  ClauseArena fresh;
  fresh.inherit_peak(s_.arena_);

  // Learned clauses survive unless they mention an eliminated variable
  // (they are implied, so dropping is always sound).
  std::vector<ClauseRef> new_learnts;
  new_learnts.reserve(s_.learnts_.size());
  Clause lits;
  for (const ClauseRef c : s_.learnts_) {
    if (s_.arena_.deleted(c)) continue;
    const std::size_t size = s_.arena_.size(c);
    lits.clear();
    bool drop = false;
    for (std::size_t i = 0; i < size; ++i) {
      const Lit l = s_.arena_.lit(c, i);
      if (var_gone_[static_cast<std::size_t>(l.var())] != 0) {
        drop = true;
        break;
      }
      lits.push_back(l);
    }
    if (drop) {
      s_.log_remove(c);
      continue;
    }
    const ClauseRef nc = fresh.alloc(lits, /*learned=*/true, s_.arena_.tainted(c));
    fresh.set_activity(nc, s_.arena_.activity(c));
    fresh.set_lbd(nc, s_.arena_.lbd(c));
    new_learnts.push_back(nc);
  }

  std::vector<ClauseRef> new_problem;
  std::vector<std::pair<Lit, bool>> units;  // derived root facts + taint
  for (const PClause& c : clauses_) {
    if (c.deleted) continue;
    if (c.lits.size() == 1) {
      units.emplace_back(c.lits[0], c.tainted);
      continue;
    }
    new_problem.push_back(fresh.alloc(c.lits, /*learned=*/false, c.tainted));
  }

  s_.arena_ = std::move(fresh);
  s_.problem_clauses_ = std::move(new_problem);
  s_.num_problem_clauses_ = s_.problem_clauses_.size();
  s_.learnts_ = std::move(new_learnts);
  for (const ClauseRef c : s_.problem_clauses_) s_.attach_clause(c);
  for (const ClauseRef c : s_.learnts_) s_.attach_clause(c);

  // Derived units become root facts now.
  for (const auto& [l, tainted] : units) {
    const LBool v = s_.value(l);
    if (v == LBool::True) continue;
    if (v == LBool::False) {
      s_.set_unsat();
      return false;
    }
    if (tainted) s_.root_taint_[static_cast<std::size_t>(l.var())] = 1;
    s_.enqueue(l, kClauseRefUndef);
  }
  if (s_.propagate() != kClauseRefUndef) {
    s_.set_unsat();
    return false;
  }
  s_.simplified_up_to_ = 0;  // force a simplify() pass on the next solve
  s_.stats_.arena_bytes = s_.arena_.size_bytes();
  s_.stats_.peak_arena_bytes = s_.arena_.peak_bytes();
  return true;
}

bool Preprocessor::run() {
  snapshot();
  if (!unsat_) {
    for (std::size_t round = 0; round < opts_.max_rounds; ++round) {
      bool changed = false;
      if (opts_.subsumption || opts_.strengthen) {
        T2M_SPAN("preprocess.subsume", "round", round);
        changed |= subsume_and_strengthen();
      }
      if (unsat_ || work_ >= opts_.work_budget) break;
      if (opts_.bve) {
        T2M_SPAN("preprocess.bve", "round", round);
        changed |= eliminate_variables();
      }
      if (unsat_ || work_ >= opts_.work_budget || !changed) break;
    }
  }
  obs::count("preprocess.subsumed", static_cast<std::uint64_t>(subsumed_));
  obs::count("preprocess.strengthened", static_cast<std::uint64_t>(strengthened_));
  obs::count("preprocess.eliminated", static_cast<std::uint64_t>(eliminated_));
  T2M_SPAN("preprocess.writeback");
  return writeback();
}

}  // namespace t2m::sat
