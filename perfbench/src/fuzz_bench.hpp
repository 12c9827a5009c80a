// The fuzz-soak workload: a fixed-length block of fuzz::run_soak seeds,
// plus the replay of the known agreement defect, and the traced run that
// times each public fuzz function on what the soak ran.
#pragma once

#include <string>

#include "common.hpp"

namespace amac::perfbench {

/// The minimal spec of the agreement violation the mutating soak finds at
/// seeds 1..5000: every node crashes, so the slot counts as decided
/// vacuously and the log applies a batch no node decided.
inline constexpr const char* kKnownDefectSpec =
    "amacfuzz1:seed=1968:alg=wpaxos:topo=clique:n=2:aux=0:sched=maxdelay:"
    "fack=1:late=0:in=alt:ids=identity:f=0:hz=30000:log=1@1@1@1:"
    "crashes=1@0,0@0";

struct KnownDefectReplay {
  bool parsed = false;
  bool violated = false;  ///< reported as a failed op
  std::string failure;    ///< failure kind name
  std::string detail;
};

/// Replays kKnownDefectSpec through fuzz::run_scenario.
[[nodiscard]] KnownDefectReplay replay_known_defect();

void run_fuzz_workload(const Options& options, Report& report);

}  // namespace amac::perfbench
