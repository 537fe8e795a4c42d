#include "audit/conservation_audit.h"

#include <sstream>

#include "core/location_service.h"
#include "sim/simulator.h"

namespace hlsrg {

void ConservationAuditor::check(const AuditScope& scope,
                                AuditReport* report) const {
  if (scope.sim == nullptr) return;
  const Simulator& sim = *scope.sim;
  const EventQueue& queue = sim.queue();
  const RunMetrics& m = sim.metrics();

  const std::uint64_t accounted = queue.events_dispatched() +
                                  queue.events_cancelled() +
                                  static_cast<std::uint64_t>(queue.size());
  if (queue.events_scheduled() != accounted) {
    std::ostringstream os;
    os << "event queue leaks events: scheduled " << queue.events_scheduled()
       << " != dispatched " << queue.events_dispatched() << " + cancelled "
       << queue.events_cancelled() << " + pending " << queue.size();
    report->add("conservation", os.str());
  }
  if (queue.next_time() < queue.now()) {
    std::ostringstream os;
    os << "event queue time runs backwards: next event at "
       << queue.next_time() << " is before now " << queue.now();
    report->add("conservation", os.str());
  }

  for (int kind = 0; kind < static_cast<int>(PacketLedger::kSlots); ++kind) {
    const std::uint64_t offered = m.channel.offered(kind);
    const std::uint64_t settled =
        m.channel.delivered(kind) + m.channel.dropped(kind);
    if (offered != settled) {
      std::ostringstream os;
      os << "channel ledger unbalanced for packet kind " << kind
         << ": offered " << offered << " != delivered "
         << m.channel.delivered(kind) << " + dropped "
         << m.channel.dropped(kind);
      report->add("conservation", os.str());
    }
  }
  // Every ledger drop is either a radio drop or a wired unreachable drop,
  // and every drop path (including the packet-less frame paths) is ledgered,
  // so the totals must agree exactly.
  if (m.radio_drops + m.wired_drops != m.channel.total_dropped()) {
    std::ostringstream os;
    os << "radio_drops " << m.radio_drops << " + wired_drops "
       << m.wired_drops << " disagrees with the channel ledger's dropped total "
       << m.channel.total_dropped();
    report->add("conservation", os.str());
  }

  // Service-tier shedding happens before issuance: a shed query never reaches
  // the tracker, so every offered query is either issued or shed. Inequality
  // form because tests may call issue_query directly, bypassing the admission
  // seam (issued then exceeds offered, which is fine; the reverse is a leak).
  if (m.queries_shed > m.queries_offered) {
    std::ostringstream os;
    os << "more queries shed than offered: " << m.queries_shed << " shed > "
       << m.queries_offered << " offered";
    report->add("conservation", os.str());
  }
  if (m.queries_offered > m.queries_issued + m.queries_shed) {
    std::ostringstream os;
    os << "admission leaks queries: offered " << m.queries_offered
       << " > issued " << m.queries_issued << " + shed " << m.queries_shed;
    report->add("conservation", os.str());
  }
  // Every shed recorded in the packet ledger's shed column came from either
  // a fresh-query shed or a retry shed — the totals must agree exactly.
  if (m.channel.total_shed() != m.queries_shed + m.retries_shed) {
    std::ostringstream os;
    os << "shed ledger unbalanced: channel shed total "
       << m.channel.total_shed() << " != queries_shed " << m.queries_shed
       << " + retries_shed " << m.retries_shed;
    report->add("conservation", os.str());
  }

  // Every abandoned GPSR route ends in exactly one way.
  const std::uint64_t gpsr_causes =
      m.gpsr_fail_no_neighbor + m.gpsr_fail_empty_disc +
      m.gpsr_fail_face_loop + m.gpsr_fail_hop_cap + m.gpsr_fail_link_lost;
  if (gpsr_causes != m.gpsr_failures) {
    std::ostringstream os;
    os << "GPSR failure causes sum to " << gpsr_causes
       << " != gpsr_failures " << m.gpsr_failures;
    report->add("conservation", os.str());
  }

  if (m.queries_succeeded + m.queries_failed > m.queries_issued) {
    std::ostringstream os;
    os << "more queries settled than issued: " << m.queries_succeeded
       << " succeeded + " << m.queries_failed << " failed > "
       << m.queries_issued << " issued";
    report->add("conservation", os.str());
  }
  if (scope.service != nullptr) {
    const std::uint64_t outstanding = scope.service->tracker().outstanding();
    if (m.queries_issued !=
        m.queries_succeeded + m.queries_failed + outstanding) {
      std::ostringstream os;
      os << "query accounting unbalanced: issued " << m.queries_issued
         << " != succeeded " << m.queries_succeeded << " + failed "
         << m.queries_failed << " + outstanding " << outstanding;
      report->add("conservation", os.str());
    }
  }
}

}  // namespace hlsrg
