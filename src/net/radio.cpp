#include "net/radio.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace hlsrg {

RadioMedium::RadioMedium(Simulator& sim, const NodeRegistry& registry,
                         RadioConfig cfg)
    : sim_(&sim), registry_(&registry), cfg_(cfg),
      // The index serves contention densities straight from its per-slot
      // cache; counts at or below the contention-free threshold are
      // loss-equivalent however they were obtained (see neighbor_index.h).
      index_(registry, cfg.range_m, cfg.contention_free_neighbors),
      kernels_(&receiver_kernels()) {
  HLSRG_CHECK(cfg.range_m > 0.0);
}

double RadioMedium::loss_probability(double dist, int local_neighbors) const {
  return hop_loss_probability(cfg_, dist, local_neighbors);
}

double RadioMedium::loss_probability(double dist, int local_neighbors,
                                     Vec2 receiver_pos) const {
  return with_zones(loss_probability(dist, local_neighbors), receiver_pos);
}

double RadioMedium::with_zones(double p, Vec2 rx) const {
  double extra = 0.0;
  for (const RadioLossZone& z : loss_zones_) {
    if (z.box.contains(rx)) extra += z.extra_loss;
  }
  if (extra <= 0.0) return p;
  // Zones may exceed max_loss up to certain loss (a fully jammed region),
  // which Rng::chance resolves without a draw.
  return std::clamp(p + extra, 0.0, 1.0);
}

void RadioMedium::batch_loss(Vec2 tx_pos, std::span<const std::uint32_t> slots,
                             std::span<const std::int32_t> density,
                             std::vector<double>* p) const {
  HLSRG_CHECK(p != nullptr && density.size() == slots.size());
  p->resize(slots.size());
  kernels_->hop_loss(cfg_, tx_pos.x, tx_pos.y, index_.slot_xs(),
                     index_.slot_ys(), slots.data(), density.data(),
                     slots.size(), p->data());
  if (loss_zones_.empty()) return;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    (*p)[i] = with_zones((*p)[i], index_.slot_pos(slots[i]));
  }
}

SimTime RadioMedium::hop_delay() {
  const double ms =
      cfg_.base_delay_ms + sim_->radio_rng().uniform(0.0, cfg_.jitter_ms);
  return SimTime::from_ms(ms);
}

std::int32_t RadioMedium::density_at(std::uint32_t slot) {
  if (reference_density_) return index_.exact_slot_density(slot);
  return index_.slot_density(slot);
}

void RadioMedium::book_offers(PacketKind kind, std::uint64_t offered,
                              std::uint64_t dropped) {
  RunMetrics& m = sim_->metrics();
  const int k = static_cast<int>(kind);
  m.channel.add_offered(k, offered);
  m.channel.add_dropped(k, dropped);
  m.channel.add_delivered(k, offered - dropped);
  m.radio_drops += dropped;
}

void RadioMedium::book_region(std::uint32_t slot, bool lost) {
  RegionTelemetry* regions = sim_->regions();
  if (regions == nullptr) return;
  if (region_stamp_.size() != index_.size()) {
    slot_region_.resize(index_.size());
    region_stamp_.resize(index_.size(), ~std::uint64_t{0});
  }
  if (region_stamp_[slot] != index_.rebuilds()) {
    slot_region_[slot] = regions->region_of(index_.slot_pos(slot));
    region_stamp_[slot] = index_.rebuilds();
  }
  RegionCounters& r = regions->at(slot_region_[slot]);
  ++(lost ? r.radio_dropped : r.radio_delivered);
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
  slots_.clear();
  index_.query_slots(tx_pos, cfg_.range_m, sender, &slots_);
  const std::size_t n = slots_.size();
  density_scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    density_scratch_[i] = density_at(slots_[i]);
  }
  batch_loss(tx_pos, slots_, density_scratch_, &loss_scratch_);
  sim_->metrics().radio_broadcasts++;
  RegionTelemetry* regions = sim_->regions();
  if (regions != nullptr) {
    ++regions->at(regions->region_of(tx_pos)).radio_broadcasts;
  }
  const SimTime delay = hop_delay();
  std::vector<NodeId> survivors;
  survivors.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool lost = sim_->radio_rng().chance(loss_scratch_[i]);
    book_region(slots_[i], lost);
    if (!lost) survivors.push_back(index_.slot_id(slots_[i]));
  }
  book_offers(kind, n, n - survivors.size());
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
  return static_cast<int>(n);
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
  const std::uint32_t slot = index_.slot_of(target);
  const bool lost =
      d > cfg_.range_m ||
      sim_->radio_rng().chance(loss_probability(d, density_at(slot), tp));
  book_offers(kind, 1, lost ? 1 : 0);
  book_region(slot, lost);
  if (!lost) {
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
