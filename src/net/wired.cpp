#include "net/wired.h"

#include <algorithm>
#include <deque>

#include "util/check.h"
#include "util/ordered.h"

namespace hlsrg {

// Latency of one wired link; the paper treats the backhaul as fast.
constexpr double kLinkLatencyMs = 1.0;

WiredNetwork::WiredNetwork(Simulator& sim, const NodeRegistry& registry)
    : sim_(&sim), registry_(&registry),
      hops_hist_(sim.observability().histogram("wired.message_hops")),
      unreachable_counter_(&sim.observability().counter("wired.unreachable")) {
}

void WiredNetwork::connect(NodeId a, NodeId b) {
  HLSRG_CHECK(a.valid() && b.valid() && a != b);
  auto& la = adjacency_[a];
  if (std::find(la.begin(), la.end(), b) == la.end()) la.push_back(b);
  auto& lb = adjacency_[b];
  if (std::find(lb.begin(), lb.end(), a) == lb.end()) lb.push_back(a);
  invalidate_cache();
}

void WiredNetwork::set_node_up(NodeId n, bool up) {
  HLSRG_CHECK(n.valid());
  const bool changed = up ? down_nodes_.erase(n.value()) > 0
                          : down_nodes_.insert(n.value()).second;
  if (changed) invalidate_cache();
}

void WiredNetwork::set_link_up(NodeId a, NodeId b, bool up) {
  HLSRG_CHECK(a.valid() && b.valid() && a != b);
  const std::uint64_t key = link_key(a, b);
  const bool changed =
      up ? down_links_.erase(key) > 0 : down_links_.insert(key).second;
  if (changed) invalidate_cache();
}

const std::unordered_map<NodeId, int>& WiredNetwork::distances_from(
    NodeId from) const {
  const auto cached = bfs_cache_.find(from);
  if (cached != bfs_cache_.end()) return cached->second;
  auto& dist = bfs_cache_[from];
  if (!node_up(from)) return dist;  // stays empty: a down node routes nothing
  dist[from] = 0;
  std::deque<NodeId> queue{from};
  while (!queue.empty()) {
    const NodeId cur = queue.front();
    queue.pop_front();
    const auto it = adjacency_.find(cur);
    if (it == adjacency_.end()) continue;
    for (NodeId next : it->second) {
      if (dist.contains(next)) continue;
      if (!node_up(next) || !link_up(cur, next)) continue;
      dist[next] = dist[cur] + 1;
      queue.push_back(next);
    }
  }
  return dist;
}

int WiredNetwork::hop_count(NodeId from, NodeId to) const {
  if (!node_up(from) || !node_up(to)) return -1;
  if (from == to) return 0;
  const auto& dist = distances_from(from);
  const auto it = dist.find(to);
  return it == dist.end() ? -1 : it->second;
}

bool WiredNetwork::send(NodeId from, NodeId to, const Packet& pkt,
                        std::uint64_t* tx_counter) {
  ProfileScope profile(sim_->profiler(), "wired_send");
  const int hops = hop_count(from, to);
  RegionTelemetry* regions = sim_->regions();
  if (hops < 0) {
    // Unreachable: the message is offered to the backhaul and lost at the
    // edge. Record the offered+dropped pair so the conservation auditor's
    // per-kind ledger still balances, and surface the loss to callers (who
    // may fail over to the radio plane).
    sim_->metrics().channel.add_offered(static_cast<int>(pkt.kind));
    sim_->metrics().channel.add_dropped(static_cast<int>(pkt.kind));
    ++sim_->metrics().wired_drops;
    if (regions != nullptr) {
      regions->add_wired_dropped(regions->region_of(registry_->position(from)));
    }
    ++*unreachable_counter_;
    return false;
  }
  sim_->metrics().wired_messages += static_cast<std::uint64_t>(hops);
  // A routable wired send always arrives: offered and delivered.
  sim_->metrics().channel.add_offered(static_cast<int>(pkt.kind));
  sim_->metrics().channel.add_delivered(static_cast<int>(pkt.kind));
  if (regions != nullptr) {
    regions->add_wired_delivered(
        regions->region_of(registry_->position(from)),
        regions->region_of(registry_->position(to)), hops,
        packet_wire_bytes(pkt.kind));
  }
  if (tx_counter != nullptr) *tx_counter += static_cast<std::uint64_t>(hops);
  hops_hist_->record(hops);
  const SimTime latency = SimTime::from_ms(kLinkLatencyMs * std::max(hops, 1));
  const SpanId ctx = sim_->active_span();
  const SpanId span =
      sim_->begin_span(SpanKind::kWiredHop, from.value(), to.value(),
                       registry_->position(from), kNoQuery, -1,
                       packet_kind_name(pkt.kind));
  sim_->schedule_after(latency, [this, to, pkt, from, ctx, span, hops] {
    sim_->end_span(span, SpanStatus::kOk, registry_->position(to), hops);
    SpanScope scope(*sim_, ctx);
    if (PacketSink* sink = registry_->sink(to)) sink->on_receive(pkt, from);
  });
  return true;
}

const std::vector<NodeId>& WiredNetwork::links_of(NodeId n) const {
  const auto it = adjacency_.find(n);
  return it == adjacency_.end() ? empty_ : it->second;
}

std::vector<std::pair<NodeId, NodeId>> WiredNetwork::links() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (const auto* entry : det::sorted_view(adjacency_)) {
    for (NodeId peer : entry->second) {
      if (entry->first.value() < peer.value()) {
        out.emplace_back(entry->first, peer);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const std::pair<NodeId, NodeId>& x,
               const std::pair<NodeId, NodeId>& y) {
              return x.first.value() != y.first.value()
                         ? x.first.value() < y.first.value()
                         : x.second.value() < y.second.value();
            });
  return out;
}

}  // namespace hlsrg
