#include "core/rsu_agent.h"

#include "core/hlsrg_service.h"
#include "obs/region_telemetry.h"
#include "util/check.h"

namespace hlsrg {

HlsrgRsuAgent::HlsrgRsuAgent(HlsrgService& service, RsuId rsu, GridLevel level,
                             GridCoord coord, NodeId node)
    : svc_(&service), rsu_(rsu), level_(level), coord_(coord), node_(node) {
  HLSRG_CHECK(level == GridLevel::kL2 || level == GridLevel::kL3);
}

void HlsrgRsuAgent::start_timers() {
  if (level_ == GridLevel::kL2) {
    svc_->sim().schedule_after(svc_->cfg().l2_push_period,
                               [this] { push_summary_to_l3(); });
  } else {
    svc_->sim().schedule_after(svc_->cfg().l3_gossip_period,
                               [this] { gossip_to_neighbors(); });
  }
}

void HlsrgRsuAgent::configure_tier(const ServiceTierConfig& cfg) {
  if (cfg.enabled && cfg.caching) {
    cache_.configure(cfg.cache_ttl, cfg.cache_capacity);
  } else {
    cache_.configure(cfg.cache_ttl, 0);  // capacity 0 = never fills
  }
}

bool HlsrgRsuAgent::cache_fresh(VehicleId dst) {
  return cache_.probe(dst, svc_->sim().now()) != nullptr;
}

void HlsrgRsuAgent::set_up(bool up) {
  if (!up && up_) {
    // Crash mid-window: every pending batch dies with the RSU. Cancel the
    // window timers and fail their spans; the held queries' sources recover
    // through the normal ACK-timeout retry path — the requests were already
    // channel-accounted when they arrived here, so nothing leaks in the
    // conservation ledger.
    for (QueryBatcher::Batch& b : batcher_.drain_all()) {
      svc_->sim().cancel(b.timer);
      svc_->sim().end_span(b.span, SpanStatus::kFailed,
                           svc_->registry().position(node_),
                           static_cast<std::int32_t>(b.queries.size()));
    }
    cache_.clear();
  }
  if (up && !up_) {
    // Reboot loses everything: tables rebuild from child re-registration
    // (update broadcasts, table pushes, summaries, gossip), and the query
    // dedup set resets so re-issued requests get served, not swallowed.
    // release() rather than clear(): the rebuilt tables re-grow to their
    // working size, and a unit that stays down returns its capacity.
    l2_table_.release();
    l3_table_.release();
    full_table_.release();
    queries_ = QueryState{};
    cache_.clear();
    busy_until_ = SimTime{};
  }
  up_ = up;
}

void HlsrgRsuAgent::on_receive(const Packet& packet, NodeId /*from*/) {
  ProfileScope profile(svc_->sim().profiler(), "rsu_handle");
  if (!up_) {
    // Crashed: the packet reached the radio/wire but nobody is listening.
    // Channel-level accounting already settled at the sender, so this is a
    // sink-side suppression, not a ledger event.
    svc_->metrics().rsu_suppressed++;
    if (packet.kind == PacketKind::kRoleHandoff) {
      // The handoff's records were still in flight; the successor crashed
      // (or was taken down) before they landed. Settle them as expired so
      // the churn conservation law closes instead of leaking the gauge.
      const auto& h = payload_as<RoleHandoffPayload>(packet);
      RunMetrics& m = svc_->metrics();
      ++m.handoffs_lost;
      m.handoff_records_in_flight -= h.record_count();
      m.handoff_records_expired += h.record_count();
    }
    return;
  }
  switch (packet.kind) {
    case PacketKind::kLocationUpdate: {
      // RSUs are always-on receivers at grid corners: any update broadcast
      // within radio range lands here too, feeding the same tables as the
      // grid-center collection path ("data aggregation" role, paper 2.1.2).
      const auto& u = payload_as<UpdatePayload>(packet);
      full_table_.record(u.record);
      invalidate_cache(u.record.vehicle, u.record.time);
      if (level_ == GridLevel::kL2) {
        l2_table_.record(
            L2Summary{u.record.vehicle, u.record.time, u.record.l1});
      } else {
        const GridCoord l2 = GridHierarchy::parent(u.record.l1, GridLevel::kL2);
        l3_table_.record(L3Summary{u.record.vehicle, u.record.time, l2, coord_});
      }
      return;
    }
    case PacketKind::kTablePush: {
      // Grid-center table arriving at this L2 RSU: thin to the L2 schema.
      if (level_ != GridLevel::kL2) return;
      const auto& t = payload_as<TablePayload>(packet);
      for (const L1Record& r : t.records) {
        l2_table_.record(L2Summary{r.vehicle, r.time, r.l1});
        invalidate_cache(r.vehicle, r.time);
      }
      full_table_.merge(t.records);
      return;
    }
    case PacketKind::kL2Summary: {
      if (level_ != GridLevel::kL3) return;
      const auto& s = payload_as<L2SummaryPayload>(packet);
      for (const L2Summary& r : s.records) {
        l3_table_.record(L3Summary{r.vehicle, r.time, s.l2, coord_});
      }
      return;
    }
    case PacketKind::kL3Gossip: {
      if (level_ != GridLevel::kL3) return;
      const auto& g = payload_as<L3GossipPayload>(packet);
      l3_table_.merge(g.records);
      return;
    }
    case PacketKind::kQueryRequest: {
      const auto& q = payload_as<QueryPayload>(packet);
      if (!queries_.mark(QueryState::Mark::kLookedUp, q.dedup_key(),
                         svc_->mark_epoch())) {
        return;
      }
      schedule_lookup([this, q] { dispatch_query(q); });
      return;
    }
    case PacketKind::kQueryBatch: {
      // One wired lookup carrying a whole batching window: unbatch and run
      // each request through the exact dedup + handling path a lone
      // kQueryRequest takes. The whole batch occupies ONE lookup slot —
      // that is the capacity the batching window buys.
      const auto& batch = payload_as<BatchedQueryPayload>(packet);
      std::vector<QueryPayload> fresh;
      fresh.reserve(batch.queries.size());
      const std::int64_t epoch = svc_->mark_epoch();
      for (const QueryPayload& q : batch.queries) {
        if (queries_.mark(QueryState::Mark::kLookedUp, q.dedup_key(), epoch)) {
          fresh.push_back(q);
        }
      }
      if (fresh.empty()) return;
      schedule_lookup([this, fresh = std::move(fresh)] {
        for (const QueryPayload& q : fresh) dispatch_query(q);
      });
      return;
    }
    case PacketKind::kCacheFill: {
      const auto& fill = payload_as<CacheFillPayload>(packet);
      cache_.fill(fill.record, svc_->sim().now());
      return;
    }
    case PacketKind::kRoleHandoff: {
      // A departing role host's tables landing on their new home: the
      // elected successor (radio) or the absorbing parent/sibling on
      // degradation (wired). Merge level-appropriately; every carried
      // record counts as delivered — thinning changes schema, not custody.
      const auto& h = payload_as<RoleHandoffPayload>(packet);
      if (level_ == GridLevel::kL2) {
        full_table_.merge(h.full_records);
        l2_table_.merge(h.l2_records);
        for (const L1Record& r : h.full_records) {
          l2_table_.record(L2Summary{r.vehicle, r.time, r.l1});
        }
        for (const L2Summary& r : h.l2_records) {
          invalidate_cache(r.vehicle, r.time);
        }
      } else {
        // L3 receiver: thin the L2-schema rows to L3 summaries. The handed-
        // off role's grid cell is the sender coordinate; this RSU now owns
        // the detail pointer.
        const GridCoord sender_l2 =
            h.level == GridLevel::kL2
                ? svc_->rsus()->rsu(h.role).coord
                : GridCoord{};
        for (const L2Summary& r : h.l2_records) {
          l3_table_.record(L3Summary{r.vehicle, r.time, sender_l2, coord_});
        }
        for (const L1Record& r : h.full_records) {
          const GridCoord l2 = GridHierarchy::parent(r.l1, GridLevel::kL2);
          l3_table_.record(L3Summary{r.vehicle, r.time, l2, coord_});
          full_table_.record(r);
        }
        l3_table_.merge(h.l3_records);
      }
      RunMetrics& m = svc_->metrics();
      ++m.handoffs_delivered;
      m.handoff_records_in_flight -= h.record_count();
      m.handoff_records_delivered += h.record_count();
      if (RegionTelemetry* regions = svc_->sim().regions()) {
        if (regions->configured()) {
          const Vec2 here = svc_->registry().position(node_);
          regions->at(regions->region_of(here)).handoff_records +=
              h.record_count();
        }
      }
      return;
    }
    default:
      return;
  }
}

// ---------------------------------------------------------------------------
// Service tier: hot-destination cache + batching window
// ---------------------------------------------------------------------------

void HlsrgRsuAgent::dispatch_query(const QueryPayload& query) {
  if (level_ == GridLevel::kL2) {
    handle_query_l2(query);
  } else {
    handle_query_l3(query);
  }
}

void HlsrgRsuAgent::schedule_lookup(std::function<void()> lookup) {
  const SimTime cost =
      svc_->tier().enabled ? svc_->tier().rsu_lookup_time : SimTime{};
  if (!(cost > SimTime{})) {
    lookup();
    return;
  }
  const SimTime now = svc_->sim().now();
  const SimTime start = busy_until_ > now ? busy_until_ : now;
  busy_until_ = start + cost;
  svc_->sim().schedule_at(busy_until_, [this, lookup = std::move(lookup)] {
    if (!up_) {
      // Crashed while the lookup waited in the work queue: the request dies
      // here; the source's ACK-timeout retry covers it.
      svc_->metrics().rsu_suppressed++;
      return;
    }
    lookup();
  });
}

void HlsrgRsuAgent::invalidate_cache(VehicleId vehicle, SimTime fresh_time) {
  if (cache_.invalidate_if_stale(vehicle, fresh_time)) {
    svc_->metrics().cache_invalidations++;
  }
}

void HlsrgRsuAgent::send_cache_fill(const L1Record& record,
                                    const QueryPayload& query) {
  if (!svc_->tier().enabled || !svc_->tier().caching) return;
  if (!query.via_rsu.valid() || query.via_rsu == node_) return;
  auto fill = std::make_shared<CacheFillPayload>();
  fill->record = record;
  svc_->wired().send(node_, query.via_rsu,
                     svc_->make_packet(PacketKind::kCacheFill, node_, fill),
                     &svc_->metrics().query_transmissions);
}

void HlsrgRsuAgent::send_query_wired(const QueryPayload& query, NodeId dest) {
  if (svc_->tier().enabled && svc_->tier().batching) {
    enqueue_for_batch(query, dest);
    return;
  }
  auto q = std::make_shared<QueryPayload>(query);
  const bool sent = svc_->wired().send(
      node_, dest, svc_->make_packet(PacketKind::kQueryRequest, node_, q),
      &svc_->metrics().query_transmissions);
  if (!sent) wired_query_failed(query, dest);
}

void HlsrgRsuAgent::enqueue_for_batch(const QueryPayload& query, NodeId dest) {
  const QueryBatcher::Enqueue action =
      batcher_.add(dest, query.target, query, svc_->tier().max_batch);
  QueryBatcher::Batch* b = batcher_.find(dest, query.target);
  HLSRG_CHECK(b != nullptr);
  switch (action) {
    case QueryBatcher::Enqueue::kArmWindow: {
      b->span = svc_->sim().begin_span(
          SpanKind::kBatch, node_.value(), query.target.value(),
          svc_->registry().position(node_), kNoQuery,
          static_cast<int>(level_), "window");
      const VehicleId target = query.target;
      b->timer = svc_->sim().schedule_after(
          svc_->tier().batch_window,
          [this, dest, target] { flush_batch(dest, target); });
      return;
    }
    case QueryBatcher::Enqueue::kHeld:
      return;
    case QueryBatcher::Enqueue::kFlushNow:
      svc_->sim().cancel(b->timer);
      flush_batch(dest, query.target);
      return;
  }
}

void HlsrgRsuAgent::flush_batch(NodeId dest, VehicleId target) {
  ProfileScope profile(svc_->sim().profiler(), "batch_flush");
  QueryBatcher::Batch batch = batcher_.take(dest, target);
  if (batch.queries.empty()) return;  // drained by a crash meanwhile
  auto payload = std::make_shared<BatchedQueryPayload>();
  payload->target = target;
  payload->queries = std::move(batch.queries);
  svc_->metrics().batch_flushes++;
  svc_->metrics().batched_queries += payload->queries.size();
  svc_->sim().end_span(batch.span, SpanStatus::kOk,
                       svc_->registry().position(node_),
                       static_cast<std::int32_t>(payload->queries.size()));
  const bool sent = svc_->wired().send(
      node_, dest, svc_->make_packet(PacketKind::kQueryBatch, node_, payload),
      &svc_->metrics().query_transmissions);
  if (!sent) {
    // The whole window failed in one shot; escalate each query on the same
    // failover route an unbatched send would have taken.
    for (const QueryPayload& q : payload->queries) wired_query_failed(q, dest);
  }
}

void HlsrgRsuAgent::wired_query_failed(const QueryPayload& query, NodeId dest) {
  if (!svc_->cfg().enable_failover) return;
  if (level_ == GridLevel::kL2) {
    // Home L3 unreachable (crashed, or every wired path cut): escalate over
    // the radio to the nearest L3 RSU still up.
    escalate_to_l3_by_radio(query);
    return;
  }
  if (svc_->wired().node_up(dest)) {
    // Wired path to the owner L2 is cut but the RSU itself is alive: push
    // the request over the radio instead.
    auto q = std::make_shared<QueryPayload>(query);
    escalate_by_radio(svc_->make_packet(PacketKind::kQueryRequest, node_, q),
                      dest, "l3_to_l2_radio");
  }
}

// ---------------------------------------------------------------------------
// Collection timers
// ---------------------------------------------------------------------------

void HlsrgRsuAgent::push_summary_to_l3() {
  if (!up_) {  // idle while crashed; keep the timer cadence
    svc_->sim().schedule_after(svc_->cfg().l2_push_period,
                               [this] { push_summary_to_l3(); });
    return;
  }
  l2_table_.purge(svc_->sim().now(), svc_->cfg().l2_expiry);
  full_table_.purge(svc_->sim().now(), svc_->cfg().l2_expiry);
  if (!l2_table_.empty()) {
    auto payload = std::make_shared<L2SummaryPayload>();
    payload->l2 = coord_;
    payload->records = l2_table_.unsorted_records();
    const GridCoord parent{coord_.col / 2, coord_.row / 2};
    const NodeId l3 = svc_->rsus()->node_at(parent, GridLevel::kL3);
    svc_->metrics().aggregation_packets++;
    svc_->wired().send(node_, l3,
                       svc_->make_packet(PacketKind::kL2Summary, node_, payload),
                       &svc_->metrics().aggregation_transmissions);
  }
  svc_->sim().schedule_after(svc_->cfg().l2_push_period,
                             [this] { push_summary_to_l3(); });
}

void HlsrgRsuAgent::gossip_to_neighbors() {
  if (!up_) {  // idle while crashed; keep the timer cadence
    svc_->sim().schedule_after(svc_->cfg().l3_gossip_period,
                               [this] { gossip_to_neighbors(); });
    return;
  }
  l3_table_.purge(svc_->sim().now(), svc_->cfg().l3_expiry);
  full_table_.purge(svc_->sim().now(), svc_->cfg().l3_expiry);
  const auto& neighbors = svc_->wired().links_of(node_);
  if (!l3_table_.empty() && !neighbors.empty()) {
    auto payload = std::make_shared<L3GossipPayload>();
    payload->records = l3_table_.unsorted_records();
    const Packet pkt = svc_->make_packet(PacketKind::kL3Gossip, node_, payload);
    for (NodeId n : neighbors) {
      // Only L3 peers gossip; skip child L2 RSUs on the same wire.
      const RsuId peer = svc_->rsus()->rsu_of_node(n);
      if (!peer.valid() ||
          svc_->rsus()->rsu(peer).level != GridLevel::kL3) {
        continue;
      }
      svc_->metrics().aggregation_packets++;
      svc_->wired().send(node_, n, pkt,
                         &svc_->metrics().aggregation_transmissions);
    }
  }
  svc_->sim().schedule_after(svc_->cfg().l3_gossip_period,
                             [this] { gossip_to_neighbors(); });
}

// ---------------------------------------------------------------------------
// Query service (paper 2.3.2, Level-2 and Level-3 cases)
// ---------------------------------------------------------------------------

void HlsrgRsuAgent::forward_down_to_l1(const QueryPayload& query,
                                       GridCoord l1) {
  auto q = std::make_shared<QueryPayload>(query);
  q->from_l3 = false;
  const Vec2 center = svc_->hierarchy().center_pos(l1, GridLevel::kL1);
  svc_->gpsr().send(node_, center, std::nullopt,
                    svc_->make_packet(PacketKind::kQueryRequest, node_, q),
                    &svc_->metrics().query_transmissions,
                    /*deliver=*/{}, /*fail=*/{},
                    /*delivery_radius=*/svc_->cfg().center_radius_m);
}

void HlsrgRsuAgent::handle_query_l2(const QueryPayload& query) {
  l2_table_.purge(svc_->sim().now(), svc_->cfg().l2_expiry);
  full_table_.purge(svc_->sim().now(), svc_->cfg().l2_expiry);
  const Vec2 here = svc_->registry().position(node_);
  if (const L1Record* found = full_table_.find(query.target)) {
    // A copy: find() pointers do not outlive an insert into the table.
    const L1Record rec = *found;
    // Case (1a): the RSU holds the fresh detail itself — "the RSU will ...
    // act as the location server of this request".
    svc_->metrics().rsu_lookup_hits++;
    svc_->sim().count_region_served(here);
    svc_->sim().instant_span(SpanKind::kTableLookup, SpanStatus::kOk,
                             node_.value(), query.target.value(), here,
                             query.query_id, 2, "full_table");
    cache_.fill(rec, svc_->sim().now());
    send_cache_fill(rec, query);
    svc_->send_notification(node_, rec, query);
    return;
  }
  if (const L2Summary* s = l2_table_.find(query.target)) {
    // Case (1b): known by summary only — down to the L1 grid center that has
    // the detail.
    svc_->metrics().rsu_lookup_hits++;
    svc_->sim().count_region_served(here);
    svc_->sim().instant_span(SpanKind::kTableLookup, SpanStatus::kOk,
                             node_.value(), query.target.value(), here,
                             query.query_id, 2, "l2_summary");
    forward_down_to_l1(query, s->l1);
    return;
  }
  // Service tier: before climbing the hierarchy, try the hot-destination
  // cache — a fresh remote record here turns the wired walk into a local
  // serve. Local tables stay authoritative (checked above); the cache only
  // shortcuts what would otherwise leave this RSU.
  if (svc_->tier().enabled && svc_->tier().caching) {
    if (const L1Record* hit = cache_.probe(query.target, svc_->sim().now())) {
      const L1Record rec = *hit;  // probe() pointers die on the next fill
      svc_->metrics().cache_hits++;
      svc_->sim().count_region_cache_hit(here);
      svc_->sim().instant_span(SpanKind::kCacheHit, SpanStatus::kOk,
                               node_.value(), query.target.value(), here,
                               query.query_id, 2);
      svc_->send_notification(node_, rec, query);
      return;
    }
    svc_->metrics().cache_misses++;
  }
  svc_->metrics().rsu_lookup_misses++;
  svc_->sim().instant_span(SpanKind::kTableLookup, SpanStatus::kFailed,
                           node_.value(), query.target.value(), here,
                           query.query_id, 2);
  // Case (2): unknown — up the hierarchy over the wire (through the
  // batching window when the tier enables it). Stamp this RSU as the
  // query's reverse-path cache target if none is set yet.
  QueryPayload q = query;
  if (!q.via_rsu.valid()) q.via_rsu = node_;
  const GridCoord parent{coord_.col / 2, coord_.row / 2};
  const NodeId l3 = svc_->rsus()->node_at(parent, GridLevel::kL3);
  send_query_wired(q, l3);
}

void HlsrgRsuAgent::escalate_to_l3_by_radio(const QueryPayload& query) {
  const Vec2 here = svc_->registry().position(node_);
  NodeId best;
  double best_d = 0.0;
  for (const RsuGrid::Rsu& r : svc_->rsus()->all()) {
    if (r.level != GridLevel::kL3) continue;
    if (!svc_->wired().node_up(r.node)) continue;  // crashed RSUs stay silent
    const double d = distance(here, r.pos);
    if (!best.valid() || d < best_d ||
        (d == best_d && r.node.value() < best.value())) {
      best = r.node;
      best_d = d;
    }
  }
  if (!best.valid()) return;  // every L3 down: the requester's retry covers it
  auto q = std::make_shared<QueryPayload>(query);
  escalate_by_radio(svc_->make_packet(PacketKind::kQueryRequest, node_, q),
                    best, "l2_to_sibling_l3");
}

void HlsrgRsuAgent::escalate_by_radio(const Packet& pkt, NodeId target,
                                      const char* route) {
  svc_->metrics().query_failovers++;
  svc_->sim().instant_span(SpanKind::kFailover, SpanStatus::kOk, node_.value(),
                           target.value(), svc_->registry().position(node_),
                           kNoQuery, static_cast<int>(level_), route);
  svc_->gpsr().send(node_, svc_->registry().position(target), target, pkt,
                    &svc_->metrics().query_transmissions);
}

void HlsrgRsuAgent::handle_query_l3(const QueryPayload& query) {
  l3_table_.purge(svc_->sim().now(), svc_->cfg().l3_expiry);
  full_table_.purge(svc_->sim().now(), svc_->cfg().l3_expiry);
  const Vec2 here = svc_->registry().position(node_);
  if (const L1Record* found = full_table_.find(query.target)) {
    // A copy: find() pointers do not outlive an insert into the table.
    const L1Record rec = *found;
    // The L3 RSU heard the update itself: serve directly.
    svc_->metrics().rsu_lookup_hits++;
    svc_->sim().count_region_served(here);
    svc_->sim().instant_span(SpanKind::kTableLookup, SpanStatus::kOk,
                             node_.value(), query.target.value(), here,
                             query.query_id, 3, "full_table");
    cache_.fill(rec, svc_->sim().now());
    send_cache_fill(rec, query);
    svc_->send_notification(node_, rec, query);
    return;
  }
  // Service tier: a fresh cached record beats another wired leg to the
  // owner L2 (see handle_query_l2 for the probe-order rationale).
  if (svc_->tier().enabled && svc_->tier().caching) {
    if (const L1Record* hit = cache_.probe(query.target, svc_->sim().now())) {
      const L1Record rec = *hit;  // probe() pointers die on the next fill
      svc_->metrics().cache_hits++;
      svc_->sim().count_region_cache_hit(here);
      svc_->sim().instant_span(SpanKind::kCacheHit, SpanStatus::kOk,
                               node_.value(), query.target.value(), here,
                               query.query_id, 3);
      send_cache_fill(rec, query);
      svc_->send_notification(node_, rec, query);
      return;
    }
    svc_->metrics().cache_misses++;
  }
  if (const L3Summary* s = l3_table_.find(query.target)) {
    // Hit: hand the request to the L2 RSU that reported the vehicle; the
    // wired mesh routes across regions (L3 -> owner L3 -> child L2),
    // through the batching window when the tier enables it.
    svc_->metrics().rsu_lookup_hits++;
    svc_->sim().count_region_served(here);
    svc_->sim().instant_span(SpanKind::kTableLookup, SpanStatus::kOk,
                             node_.value(), query.target.value(), here,
                             query.query_id, 3, "l3_summary");
    QueryPayload q = query;
    q.from_l3 = true;
    const NodeId l2 = svc_->rsus()->node_at(s->l2, GridLevel::kL2);
    send_query_wired(q, l2);
    return;
  }
  svc_->metrics().rsu_lookup_misses++;
  svc_->sim().instant_span(SpanKind::kTableLookup, SpanStatus::kFailed,
                           node_.value(), query.target.value(), here,
                           query.query_id, 3);
  if (query.from_l3) return;  // sideways forwards are answered or dropped
  // Miss from below: ask the wired L3 neighbors (the paper assumes the L3
  // plane collectively knows every vehicle; gossip approximates that, and
  // this covers records that have not gossiped over yet).
  auto q = std::make_shared<QueryPayload>(query);
  q->from_l3 = true;
  const Packet pkt = svc_->make_packet(PacketKind::kQueryRequest, node_, q);
  for (NodeId n : svc_->wired().links_of(node_)) {
    const RsuId peer = svc_->rsus()->rsu_of_node(n);
    if (!peer.valid() || svc_->rsus()->rsu(peer).level != GridLevel::kL3) {
      continue;
    }
    svc_->wired().send(node_, n, pkt, &svc_->metrics().query_transmissions);
  }
}

}  // namespace hlsrg
