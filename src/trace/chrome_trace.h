// Chrome-trace-event exporter (loads in Perfetto / chrome://tracing).
//
// Three processes in the output: pid 1 is *simulated* time — one thread
// track per traced query (named "query <id>") carrying its span tree as
// complete ("X") events and instant ("i") spans, plus one shared track per
// kind for span trees outside any query (updates, table hand-offs and
// pushes); pid 2 is *wall-clock* engine time — one track per
// replica worker with the harness phases (build/run/digest); pid 3 (only
// when a profiler is passed) is the aggregated phase profile — the node
// tree laid out as synthetic nested "X" events whose durations are the
// inclusive nanosecond totals (a flame graph of where the run's wall time
// went, not a timeline). Timestamps are microseconds, as the format
// requires.
#pragma once

#include <string>
#include <vector>

#include "trace/trace.h"

namespace hlsrg {

class JsonValue;
class PhaseProfiler;

// One wall-clock engine phase, seconds relative to the run's epoch.
struct WallSpan {
  std::string name;
  int track = 0;  // replica index -> tid under pid 2
  double begin_sec = 0.0;
  double end_sec = 0.0;
};

// Builds the full trace document: {"displayTimeUnit": "ms",
// "traceEvents": [...]}. Dump with .dump() and feed to Perfetto.
// `profile`, when non-null and non-empty, adds the pid-3 flame track.
[[nodiscard]] JsonValue chrome_trace_document(
    const TraceLog& log, const std::vector<WallSpan>& wall_spans = {},
    const PhaseProfiler* profile = nullptr);

// Convenience: chrome_trace_document(...).dump(...) written to `path`;
// false + *error on I/O failure.
bool write_chrome_trace(const TraceLog& log,
                        const std::vector<WallSpan>& wall_spans,
                        const std::string& path, std::string* error = nullptr,
                        const PhaseProfiler* profile = nullptr);

}  // namespace hlsrg
