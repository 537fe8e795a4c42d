#include "trace/chrome_trace.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>

#include "obs/profiler.h"
#include "report/json.h"

namespace hlsrg {
namespace {

constexpr int kSimPid = 1;
constexpr int kEnginePid = 2;
constexpr int kProfilePid = 3;
// tid layout under kSimPid: 1000 + query_id = per-query span trees,
// 1 + kind = spans whose root has no query id.
constexpr std::int64_t kQueryTidBase = 1000;

std::int64_t track_for(const TraceLog& log, const Span& span) {
  const Span* root = &span;
  while (root->parent != kNoSpan) {
    const Span* parent = log.span(root->parent);
    if (parent == nullptr) break;
    root = parent;
  }
  if (root->query_id != kNoQuery) return kQueryTidBase + root->query_id;
  return 1 + static_cast<std::int64_t>(root->kind);
}

JsonValue span_args(const Span& s) {
  JsonValue args = JsonValue::object();
  args.set("status", span_status_name(s.status));
  if (s.subject != kNoQuery) args.set("subject", std::uint64_t{s.subject});
  if (s.other != kNoQuery) args.set("other", std::uint64_t{s.other});
  if (s.query_id != kNoQuery) args.set("query_id", std::uint64_t{s.query_id});
  if (s.level >= 0) args.set("level", static_cast<int>(s.level));
  if (s.value != 0) args.set("value", s.value);
  if (s.detail != nullptr) args.set("detail", s.detail);
  args.set("begin_x", s.begin_pos.x);
  args.set("begin_y", s.begin_pos.y);
  args.set("end_x", s.end_pos.x);
  args.set("end_y", s.end_pos.y);
  return args;
}

JsonValue meta_event(int pid, std::int64_t tid, const char* what,
                     const std::string& name) {
  JsonValue e = JsonValue::object();
  e.set("name", what);
  e.set("ph", "M");
  e.set("pid", pid);
  if (tid >= 0) e.set("tid", tid);
  JsonValue args = JsonValue::object();
  args.set("name", name);
  e.set("args", std::move(args));
  return e;
}

// Lays out the profile subtree rooted at `node` as nested "X" events
// starting at `ts_us`. This is a flame graph, not a timeline: a node's
// duration is its inclusive total and its children are packed side by side
// (name order) from its start, so nesting renders call structure while
// widths render time share.
void emit_profile_node(const PhaseProfiler& prof, int node, double ts_us,
                       JsonValue* events) {
  const PhaseProfiler::Node& n =
      prof.nodes()[static_cast<std::size_t>(node)];
  const double dur_us = static_cast<double>(n.inclusive_ns) / 1e3;
  JsonValue ev = JsonValue::object();
  ev.set("name", n.name);
  ev.set("cat", "profile");
  ev.set("ph", "X");
  ev.set("pid", kProfilePid);
  ev.set("tid", std::int64_t{0});
  ev.set("ts", ts_us);
  ev.set("dur", dur_us);
  JsonValue args = JsonValue::object();
  args.set("calls", n.calls);
  args.set("inclusive_ns", n.inclusive_ns);
  args.set("exclusive_ns", n.exclusive_ns());
  ev.set("args", std::move(args));
  events->push_back(std::move(ev));
  std::vector<int> children = n.children;
  std::sort(children.begin(), children.end(), [&prof](int a, int b) {
    return std::strcmp(prof.nodes()[static_cast<std::size_t>(a)].name,
                       prof.nodes()[static_cast<std::size_t>(b)].name) < 0;
  });
  double cursor = ts_us;
  for (int child : children) {
    emit_profile_node(prof, child, cursor, events);
    cursor += static_cast<double>(
                  prof.nodes()[static_cast<std::size_t>(child)].inclusive_ns) /
              1e3;
  }
}

}  // namespace

JsonValue chrome_trace_document(const TraceLog& log,
                                const std::vector<WallSpan>& wall_spans,
                                const PhaseProfiler* profile) {
  JsonValue events = JsonValue::array();

  // Horizon for spans still open at the end of the run.
  double max_sec = 0.0;
  for (const Span& s : log.spans()) {
    max_sec = std::max(max_sec, std::max(s.begin.sec(), s.end.sec()));
  }

  std::map<std::int64_t, std::string> sim_threads;
  for (const Span& s : log.spans()) {
    const std::int64_t tid = track_for(log, s);
    if (tid >= kQueryTidBase) {
      sim_threads.emplace(
          tid, "query " + std::to_string(tid - kQueryTidBase));
    } else {
      sim_threads.emplace(
          tid, std::string(span_kind_name(s.kind)) + " (no query)");
    }
    const double begin_sec = s.begin.sec();
    const double end_sec =
        s.status == SpanStatus::kOpen ? max_sec : s.end.sec();
    JsonValue ev = JsonValue::object();
    ev.set("name", span_kind_name(s.kind));
    ev.set("cat", "span");
    ev.set("pid", kSimPid);
    ev.set("tid", tid);
    ev.set("ts", begin_sec * 1e6);
    if (end_sec > begin_sec) {
      ev.set("ph", "X");
      ev.set("dur", (end_sec - begin_sec) * 1e6);
    } else {
      ev.set("ph", "i");
      ev.set("s", "t");
    }
    ev.set("args", span_args(s));
    events.push_back(std::move(ev));
  }

  std::map<std::int64_t, std::string> engine_threads;
  for (const WallSpan& w : wall_spans) {
    engine_threads.emplace(w.track, "replica " + std::to_string(w.track));
    JsonValue ev = JsonValue::object();
    ev.set("name", w.name);
    ev.set("cat", "engine");
    ev.set("ph", "X");
    ev.set("pid", kEnginePid);
    ev.set("tid", std::int64_t{w.track});
    ev.set("ts", w.begin_sec * 1e6);
    ev.set("dur", std::max(0.0, w.end_sec - w.begin_sec) * 1e6);
    events.push_back(std::move(ev));
  }

  // pid 3: aggregated phase-profile flame track. The synthetic root never
  // closes (it has no inclusive time), so its children are packed from 0.
  if (profile != nullptr && !profile->empty()) {
    double cursor = 0.0;
    std::vector<int> roots = profile->nodes()[0].children;
    std::sort(roots.begin(), roots.end(), [profile](int a, int b) {
      return std::strcmp(
                 profile->nodes()[static_cast<std::size_t>(a)].name,
                 profile->nodes()[static_cast<std::size_t>(b)].name) < 0;
    });
    for (int child : roots) {
      emit_profile_node(*profile, child, cursor, &events);
      cursor +=
          static_cast<double>(
              profile->nodes()[static_cast<std::size_t>(child)].inclusive_ns) /
          1e3;
    }
    events.push_back(
        meta_event(kProfilePid, -1, "process_name", "phase profile (flame)"));
    events.push_back(meta_event(kProfilePid, 0, "thread_name", "phases"));
  }

  events.push_back(
      meta_event(kSimPid, -1, "process_name", "simulation (sim time)"));
  for (const auto& [tid, name] : sim_threads) {
    events.push_back(meta_event(kSimPid, tid, "thread_name", name));
  }
  if (!wall_spans.empty()) {
    events.push_back(
        meta_event(kEnginePid, -1, "process_name", "engine (wall clock)"));
    for (const auto& [tid, name] : engine_threads) {
      events.push_back(meta_event(kEnginePid, tid, "thread_name", name));
    }
  }

  JsonValue doc = JsonValue::object();
  doc.set("displayTimeUnit", "ms");
  doc.set("traceEvents", std::move(events));
  return doc;
}

bool write_chrome_trace(const TraceLog& log,
                        const std::vector<WallSpan>& wall_spans,
                        const std::string& path, std::string* error,
                        const PhaseProfiler* profile) {
  return write_json_file(chrome_trace_document(log, wall_spans, profile), path,
                         error);
}

}  // namespace hlsrg
