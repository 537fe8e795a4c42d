// Open-loop Poisson workload generator (service tier).
//
// The scenario workload (World::schedule_workload) schedules every submit
// up front from the workload stream — one-shot queries at uniform times, or
// Poisson arrivals at a fixed rate — and never waits for an earlier query
// to settle. This generator is an open loop as well; what it adds is a rate
// that can ramp, which is how bench/load_knee sweeps offered load past a
// protocol's saturation knee.
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
  // `vehicles` is the fleet size; sources are uniform over it, destinations
  // follow the hotspot skew over the first `hotspot_targets` vehicles.
  OpenLoopGenerator(Simulator& sim, QueryAdmission& admission,
                    const ServiceTierConfig& cfg, std::size_t vehicles,
                    std::size_t hotspot_targets);

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
  std::size_t hotspot_targets_;
  SimTime begin_;
  SimTime end_;
  double peak_rate_ = 0.0;
  std::uint64_t generated_ = 0;
};

}  // namespace hlsrg
