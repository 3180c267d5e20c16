// Traced twin of rac::Simulation for the end-to-end benchmark.
//
// The twin builds the same deployment as rac::Simulation's constructor and
// start_uniform_traffic(), from public APIs only (sim::Simulator,
// sim::Network, overlay::View, rac::Core, sim::ShardGroup), and replays
// Simulation::run_for / run_window in the same order. Three wrappers time
// each layer at its public boundary:
//   - a rac::Driver around rac::DesDriver that times transmit() (the
//     sim::Network send path) and, bound as the timer sink, Core::on_timer;
//   - the endpoint handler, which times Core::on_message;
//   - a CryptoProvider around the real one, timing seal/open/keygen.
// Self time is a span's duration minus its timed children (thread-local
// nesting stack); tallies are kept per shard. Engine self time is what is
// left of the run once every timed callback is subtracted.
//
// A twin run must reproduce the untraced Simulation's delivered-payload and
// kernel-event counts exactly; the harness checks that.
#pragma once

#include <map>
#include <string>

#include "rac/simulation.hpp"

namespace bench {

struct TwinResult {
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  double wall_s = 0;
  /// Simulated latency of every onion completed during the run (onion sent
  /// to its last relay rebroadcast observed, as in Core::onion_latency()).
  std::vector<double> onion_latency_ms;
  /// Per-layer metrics by name (see e2ebench/README.md).
  std::map<std::string, double> layers;
};

/// Build the twin of `Simulation(config)` + start_uniform_traffic(), run it
/// for `horizon` simulated time, and return its counts and layer split.
/// The workload must run with misbehaviour checks off (the twin does not
/// model evictions and fails the run if one is requested).
TwinResult run_twin(const rac::SimulationConfig& config,
                    rac::SimDuration horizon);

}  // namespace bench
