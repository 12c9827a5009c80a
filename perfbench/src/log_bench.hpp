// The three replicated-log workloads (log-leased, log-paxos,
// log-failover): closed-loop runs of log::ReplicatedLog with every output
// checked, and the traced run that splits drive() into layers.
#pragma once

#include <string>

#include "common.hpp"

namespace amac::perfbench {

[[nodiscard]] bool is_log_workload(const std::string& name);

/// Runs one log workload as Options asks; fills the report's metrics
/// (end-to-end when untraced, per-layer when traced), counts and pins.
void run_log_workload(const Options& options, Report& report);

}  // namespace amac::perfbench
