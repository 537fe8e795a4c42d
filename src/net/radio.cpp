#include "net/radio.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace hlsrg {

RadioMedium::RadioMedium(Simulator& sim, const NodeRegistry& registry,
                         RadioConfig cfg)
    : sim_(&sim), registry_(&registry), cfg_(cfg),
      // The index serves contention densities straight from its per-node
      // cache; counts at or below the contention-free threshold are
      // loss-equivalent however they were obtained (see neighbor_index.h).
      index_(registry, cfg.range_m, cfg.contention_free_neighbors) {
  HLSRG_CHECK(cfg.range_m > 0.0);
}

double RadioMedium::loss_probability(double dist, int local_neighbors) const {
  const double frac = std::clamp(dist / cfg_.range_m, 0.0, 1.0);
  const int excess = std::max(0, local_neighbors - cfg_.contention_free_neighbors);
  const double p = cfg_.base_loss + cfg_.distance_loss * frac * frac +
                   cfg_.contention_loss_per_neighbor * excess;
  return std::clamp(p, 0.0, cfg_.max_loss);
}

double RadioMedium::loss_probability(double dist, int local_neighbors,
                                     Vec2 receiver_pos) const {
  double extra = 0.0;
  for (const RadioLossZone& z : loss_zones_) {
    if (z.box.contains(receiver_pos)) extra += z.extra_loss;
  }
  if (extra <= 0.0) return loss_probability(dist, local_neighbors);
  // Zones may exceed max_loss up to certain loss (a fully jammed region),
  // which Rng::chance resolves without a draw.
  return std::clamp(loss_probability(dist, local_neighbors) + extra, 0.0, 1.0);
}

SimTime RadioMedium::hop_delay() {
  const double ms =
      cfg_.base_delay_ms + sim_->radio_rng().uniform(0.0, cfg_.jitter_ms);
  return SimTime::from_ms(ms);
}

int RadioMedium::density_at(NodeId rx) {
  if (reference_density_) return index_.exact_density(rx);
  return index_.local_density(rx);
}

bool RadioMedium::offer(PacketKind kind, Vec2 rx_pos, bool lost) {
  RunMetrics& m = sim_->metrics();
  const int k = static_cast<int>(kind);
  m.channel.add_offered(k);
  if (lost) {
    ++m.radio_drops;
    m.channel.add_dropped(k);
  } else {
    m.channel.add_delivered(k);
  }
  if (RegionTelemetry* regions = sim_->regions()) {
    RegionCounters& r = regions->at(regions->region_of(rx_pos));
    ++(lost ? r.radio_dropped : r.radio_delivered);
  }
  return !lost;
}

int RadioMedium::broadcast(NodeId sender, const Packet& pkt) {
  return broadcast(sender, registry_->position(sender), pkt);
}

int RadioMedium::broadcast(NodeId sender, Vec2 tx_pos, const Packet& pkt) {
  return broadcast_each(sender, tx_pos, pkt.kind,
                        [this, sender, pkt](NodeId rx) {
                          if (PacketSink* sink = registry_->sink(rx)) {
                            sink->on_receive(pkt, sender);
                          }
                        });
}

int RadioMedium::broadcast_each(NodeId sender, Vec2 tx_pos, PacketKind kind,
                                std::function<void(NodeId)> on_deliver) {
  HLSRG_CHECK(on_deliver != nullptr);
  ProfileScope profile(sim_->profiler(), "radio_broadcast");
  index_.refresh(sim_->now(), sim_->profiler());
  scratch_.clear();
  density_scratch_.clear();
  if (reference_density_) {
    index_.query(tx_pos, cfg_.range_m, sender, &scratch_);
    for (NodeId rx : scratch_) density_scratch_.push_back(density_at(rx));
  } else {
    index_.query_with_density(tx_pos, cfg_.range_m, sender, &scratch_,
                              &density_scratch_);
  }
  sim_->metrics().radio_broadcasts++;
  RegionTelemetry* regions = sim_->regions();
  if (regions != nullptr) {
    ++regions->at(regions->region_of(tx_pos)).radio_broadcasts;
  }
  const SimTime delay = hop_delay();
  std::vector<NodeId> survivors;
  survivors.reserve(scratch_.size());
  for (std::size_t i = 0; i < scratch_.size(); ++i) {
    const NodeId rx = scratch_[i];
    const Vec2 rp = registry_->position(rx);
    const bool lost = sim_->radio_rng().chance(
        loss_probability(distance(tx_pos, rp), density_scratch_[i], rp));
    if (offer(kind, rp, lost)) survivors.push_back(rx);
  }
  if (!survivors.empty()) {
    sim_->schedule_after(
        delay, [this, survivors = std::move(survivors),
                on_deliver = std::move(on_deliver), ctx = sim_->active_span()] {
          for (NodeId rx : survivors) {
            SpanScope scope(*sim_, ctx);
            on_deliver(rx);
          }
        });
  }
  return static_cast<int>(scratch_.size());
}

void RadioMedium::unicast(NodeId sender, NodeId target, const Packet& pkt,
                          std::function<void()> on_lost) {
  unicast_frame(
      sender, target, pkt.kind,
      [this, sender, target, pkt] {
        if (PacketSink* sink = registry_->sink(target)) {
          sink->on_receive(pkt, sender);
        }
      },
      std::move(on_lost));
}

void RadioMedium::unicast_frame(NodeId sender, NodeId target, PacketKind kind,
                                std::function<void()> on_delivered,
                                std::function<void()> on_lost) {
  HLSRG_CHECK(on_delivered != nullptr);
  // One hop span covering every MAC retry; ends at reception or abandon.
  const SpanId ctx = sim_->active_span();
  const SpanId span =
      sim_->begin_span(SpanKind::kRadioHop, sender.value(), target.value(),
                       registry_->position(sender), kNoQuery, -1,
                       packet_kind_name(kind));
  try_unicast(sender, target, kind, cfg_.unicast_retries,
              std::move(on_delivered), std::move(on_lost), span, ctx);
}

void RadioMedium::try_unicast(NodeId sender, NodeId target, PacketKind kind,
                              int attempts_left,
                              std::function<void()> on_delivered,
                              std::function<void()> on_lost, SpanId span,
                              SpanId ctx) {
  ProfileScope profile(sim_->profiler(), "radio_unicast");
  index_.refresh(sim_->now(), sim_->profiler());
  const Vec2 sp = registry_->position(sender);
  const Vec2 tp = registry_->position(target);
  const double d = distance(sp, tp);
  sim_->metrics().radio_unicasts++;
  RegionTelemetry* regions = sim_->regions();
  if (regions != nullptr) ++regions->at(regions->region_of(sp)).radio_unicasts;
  const std::int32_t retries_used = cfg_.unicast_retries - attempts_left;
  // Out of range is lost without a loss draw.
  const bool lost =
      d > cfg_.range_m ||
      sim_->radio_rng().chance(loss_probability(d, density_at(target), tp));
  if (offer(kind, tp, lost)) {
    sim_->schedule_after(hop_delay(), [this, target, span, ctx, retries_used,
                                       cb = std::move(on_delivered)] {
      sim_->end_span(span, SpanStatus::kOk, registry_->position(target),
                     retries_used);
      SpanScope scope(*sim_, ctx);
      cb();
    });
    return;
  }
  if (attempts_left > 0) {
    sim_->schedule_after(
        SimTime::from_ms(cfg_.retry_delay_ms),
        [this, sender, target, kind, attempts_left,
         on_delivered = std::move(on_delivered),
         on_lost = std::move(on_lost), span, ctx]() mutable {
          try_unicast(sender, target, kind, attempts_left - 1,
                      std::move(on_delivered), std::move(on_lost), span, ctx);
        });
  } else {
    sim_->end_span(span, SpanStatus::kFailed, tp, retries_used);
    if (on_lost) {
      SpanScope scope(*sim_, ctx);
      on_lost();
    }
  }
}

void RadioMedium::neighbors_of(NodeId node, std::vector<NodeId>* out) {
  index_.refresh(sim_->now(), sim_->profiler());
  out->clear();
  index_.query(registry_->position(node), cfg_.range_m, node, out);
}

void RadioMedium::nodes_near(Vec2 pos, double radius, NodeId exclude,
                             std::vector<NodeId>* out) {
  HLSRG_CHECK(radius <= cfg_.range_m);
  index_.refresh(sim_->now(), sim_->profiler());
  out->clear();
  index_.query(pos, radius, exclude, out);
}

}  // namespace hlsrg
