// Tests of the benchmark's independent verdict check: a learned model
// passes, and the same model with one transition retargeted fails.
//
//   cmake --build .bench_build --target verify_test && .bench_build/verify_test

#include <iostream>
#include <string>

#include "verify.h"
#include "workloads.h"

namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  if (condition) return;
  ++failures;
  std::cerr << "FAILED: " << what << "\n";
}

/// `model` with transition `index` pointed at `dst` instead.
t2m::Nfa retarget(const t2m::Nfa& model, std::size_t index, t2m::StateId dst) {
  t2m::Nfa out(model.num_states(), model.initial());
  for (std::size_t i = 0; i < model.transitions().size(); ++i) {
    const t2m::Transition& t = model.transitions()[i];
    out.add_transition(t.src, t.pred, i == index ? dst : t.dst);
  }
  return out;
}

/// Learns `instance`, expects the verdict to pass the check, then expects
/// every single-transition retarget of its model to fail it.
void check_instance(const t2mbench::Instance& instance) {
  const t2m::LearnResult learned = t2mbench::learn_instance(instance);
  expect(t2mbench::check_verdict(learned, instance).empty(),
         instance.name + ": the learned model passes");
  const t2m::Nfa& model = learned.model;
  for (std::size_t i = 0; i < model.transitions().size(); ++i) {
    const t2m::Transition& t = model.transitions()[i];
    const t2m::StateId dst = (t.dst + 1) % model.num_states();
    t2m::LearnResult broken = learned;
    broken.model = retarget(model, i, dst);
    expect(!t2mbench::check_verdict(broken, instance).empty(),
           instance.name + ": transition " + std::to_string(i) + " retargeted to state " +
               std::to_string(dst) + " fails");
  }
  t2m::LearnResult wrong_size = learned;
  wrong_size.states = learned.states + 1;
  expect(!t2mbench::check_verdict(wrong_size, instance).empty(),
         instance.name + ": a misreported N fails");
}

}  // namespace

int main() {
  const t2mbench::Workload rtlinux =
      t2mbench::make_workload("rtlinux_search", t2mbench::kDefaultSeed, ".");
  check_instance(rtlinux.front());
  const t2mbench::Workload table1 =
      t2mbench::make_workload("table1_seg", t2mbench::kDefaultSeed, ".");
  check_instance(table1.front());  // USB Slot, acceptance off
  if (failures > 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "verify_test: all checks passed\n";
  return 0;
}
