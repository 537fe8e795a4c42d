// Fixture: harness-style phase timing through the sanctioned obs clock API
// (obs/profiler.h). No raw std::chrono / libc clock reads, so the
// wall-clock rule reports zero findings — this is the shape runner.cpp,
// scenario_cli, and the benches use.

namespace fixture {

// Stand-ins for the obs/profiler.h declarations (the fixture compiles
// nothing; the lint only tokenizes).
unsigned long long monotonic_now_ns();
double monotonic_now_sec();

struct PhaseTiming {
  double begin_sec = 0.0;
  double end_sec = 0.0;
};

inline PhaseTiming time_build_phase() {
  PhaseTiming phase;
  const double epoch = monotonic_now_sec();
  phase.begin_sec = 0.0;
  phase.end_sec = monotonic_now_sec() - epoch;
  return phase;
}

inline unsigned long long scope_elapsed() {
  const unsigned long long start = monotonic_now_ns();
  return monotonic_now_ns() - start;
}

}  // namespace fixture
