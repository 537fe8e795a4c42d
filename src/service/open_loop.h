// Open-loop Poisson workload generator: the one arrival process besides the
// paper's one-shot workload.
//
// The scenario's one-shot workload (World::schedule_workload) schedules
// each source's single submit up front. Every other arrival pattern comes
// from here: constant-rate Poisson arrivals (a scenario with
// `source_fraction = 0` and `hotspot_fraction = 0`), hotspot arrivals (the
// same with `hotspot_fraction = 1`), or a rate that ramps, which is how
// bench/load_knee sweeps offered load past a protocol's saturation knee.
// Neither process waits for an earlier query to settle.
//
// Arrivals are scheduled one at a time (no precomputed arrival list, so
// memory is O(1) in the horizon) by thinning against the peak rate of the
// ramp, drawing exclusively from Simulator::open_loop_rng — enabling the
// generator never perturbs the mobility, radio, protocol, or scenario
// workload streams.
#pragma once

#include <cstdint>

#include "service/admission.h"
#include "service/service_config.h"
#include "sim/simulator.h"

namespace hlsrg {

class OpenLoopGenerator {
 public:
  // `vehicles` is the fleet size (at least 2); sources are uniform over it.
  // Destinations follow the hotspot skew over the hot set, the first
  // `hotspot_targets` vehicles clamped to [1, vehicles - 1].
  OpenLoopGenerator(Simulator& sim, QueryAdmission& admission,
                    const ServiceTierConfig& cfg, std::size_t vehicles,
                    int hotspot_targets);

  // Starts the arrival process over [begin, end). No-op when the configured
  // base rate is zero.
  void start(SimTime begin, SimTime end);

  // Instantaneous arrival rate at `t` (clamped at zero for negative ramps).
  [[nodiscard]] double rate_at(SimTime t) const;

  [[nodiscard]] std::uint64_t generated() const { return generated_; }

 private:
  void schedule_next(SimTime from);
  void fire();

  Simulator* sim_;
  QueryAdmission* admission_;
  ServiceTierConfig cfg_;
  std::size_t vehicles_;
  std::size_t hot_set_size_;
  SimTime begin_;
  SimTime end_;
  double peak_rate_ = 0.0;
  std::uint64_t generated_ = 0;
};

}  // namespace hlsrg
