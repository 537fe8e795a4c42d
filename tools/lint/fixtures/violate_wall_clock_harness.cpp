// Fixture: raw clock reads in harness-style timing code. The harness used
// to be allowlisted for wall-clock reads; since the obs profiler became the
// single sanctioned site (src/obs/profiler.cpp), phase timing like this
// must go through monotonic_now_ns()/monotonic_now_sec() from
// obs/profiler.h instead.
#include <chrono>

namespace fixture {

struct PhaseTiming {
  double begin_sec = 0.0;
  double end_sec = 0.0;
};

inline PhaseTiming time_build_phase() {
  PhaseTiming phase;
  const auto start = std::chrono::steady_clock::now();  // line 17
  phase.begin_sec = 0.0;
  phase.end_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -  // 20
                                    start)
          .count();
  return phase;
}

}  // namespace fixture
