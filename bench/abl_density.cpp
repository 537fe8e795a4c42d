// Ablation A10 — vehicle density vs query radio cost.
//
// The paper evaluates one density (500 vehicles on 2 km). Doubling and
// quadrupling it at fixed map size is where a flooding search stops paying
// for itself: every extra receiver in a notification corridor or cell is one
// more rebroadcast unless geocast suppresses it. This sweep runs HLSRG and
// RLSMP at 1x / 2x / 4x the paper's density on a 2 km and a 4 km map and
// reports, per protocol, the query radio transmissions per issued query,
// the success rate, and the notification geocasts' channel offers per
// query taken from the per-kind packet ledger (HLSRG kNotification, RLSMP
// kRlsmpNotify). Query cost growing faster than density is the
// dissemination storm.
#include "common.h"

namespace {

using hlsrg::PacketKind;
using hlsrg::ReplicaSet;

double per_query(const ReplicaSet& s, std::uint64_t count) {
  const std::uint64_t queries = s.merged.queries_issued;
  return queries == 0 ? 0.0
                      : static_cast<double>(count) /
                            static_cast<double>(queries);
}

std::uint64_t notification_offers(const ReplicaSet& s) {
  return s.merged.channel.offered(static_cast<int>(PacketKind::kNotification)) +
         s.merged.channel.offered(static_cast<int>(PacketKind::kRlsmpNotify));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hlsrg;
  const bench::BenchOptions opts =
      bench::parse_options(argc, argv, "abl_density", 1);
  if (opts.parse_failed) return opts.exit_code;

  bench::SweepDriver driver(opts);
  driver.begin_section("Ablation A10: density sweep", "query tx per query");
  std::printf("== Ablation A10: density sweep ==\n"
              "   (%d replicas per point; 1x = 500 vehicles per 4 km^2)\n",
              driver.replicas());
  TextTable table;
  table.add_row({"point", "protocol", "query tx/query", "success",
                 "notify offers/query"});
  for (double size : {2000.0, 4000.0}) {
    for (int factor : {1, 2, 4}) {
      const int vehicles = static_cast<int>(
          factor * 500.0 * (size * size) / (2000.0 * 2000.0));
      ScenarioConfig cfg = paper_scenario(vehicles, 9800);
      cfg.map.size_m = size;
      const std::string label = std::to_string(static_cast<int>(size)) +
                                "m/" + std::to_string(factor) + "x";
      for (Protocol protocol : {Protocol::kHlsrg, Protocol::kRlsmp}) {
        const ReplicaSet s = driver.run(label, cfg, protocol);
        const RunMetrics& m = s.merged;
        table.add_row({label, protocol_name(protocol),
                       fmt_double(per_query(s, m.query_transmissions), 1),
                       fmt_percent(static_cast<double>(m.queries_succeeded),
                                   static_cast<double>(m.queries_issued)),
                       fmt_double(per_query(s, notification_offers(s)), 1)});
      }
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("-- CSV --\n%s\n", table.render_csv().c_str());
  return driver.finish() ? 0 : 1;
}
