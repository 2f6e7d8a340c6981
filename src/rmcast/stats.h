// Protocol statistics.
//
// Beyond debugging, these counters regenerate the paper's Table 2 (control
// packets and processing per data packet) and the measured-memory column
// of Table 1, so their semantics are part of the public API.
#pragma once

#include <cstdint>

namespace rmc::rmcast {

struct SenderStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t data_packets_sent = 0;    // first transmissions
  std::uint64_t retransmissions = 0;      // additional transmissions
  std::uint64_t acks_received = 0;
  std::uint64_t naks_received = 0;
  std::uint64_t alloc_requests_sent = 0;  // includes retries
  std::uint64_t alloc_responses_received = 0;
  std::uint64_t rto_fires = 0;
  std::uint64_t suppressed_retransmissions = 0;
  // Transitions into a full-window stall (blocked on acknowledgments).
  std::uint64_t window_stalls = 0;
  std::uint64_t stale_packets = 0;        // wrong session / state
  // High-water mark of unacknowledged (buffered) payload bytes.
  std::uint64_t peak_buffered_bytes = 0;
  // Graceful degradation (max_retransmit_rounds > 0): receivers evicted
  // from the acknowledgment roster, exponential RTO backoff steps taken,
  // and SUSPECT reports received from tree parents about stalled children.
  std::uint64_t receivers_evicted = 0;
  std::uint64_t rto_backoffs = 0;
  std::uint64_t suspect_reports_received = 0;
  // Hybrid FEC (kEcXor/kEcRs): parity frames emitted at group close and
  // GROUP_NAK fallback requests answered with retransmissions.
  std::uint64_t parity_packets_sent = 0;
  std::uint64_t group_naks_received = 0;
};

struct ReceiverStats {
  std::uint64_t messages_delivered = 0;
  std::uint64_t data_packets_received = 0;  // accepted in-order (or SR-buffered)
  std::uint64_t duplicates = 0;             // seq below the in-order point
  std::uint64_t gaps_detected = 0;          // seq above the in-order point
  std::uint64_t acks_sent = 0;
  std::uint64_t naks_sent = 0;
  std::uint64_t naks_suppressed = 0;        // rate-limited
  std::uint64_t alloc_requests_received = 0;
  std::uint64_t alloc_responses_sent = 0;
  // Tree protocols only: control packets relayed at user level.
  std::uint64_t relayed_acks_received = 0;
  // SRM-style peer repair: repairs this receiver multicast, and repairs it
  // suppressed because someone else (peer or sender) got there first.
  std::uint64_t repairs_sent = 0;
  std::uint64_t repairs_suppressed = 0;
  std::uint64_t stale_packets = 0;
  // DATA packets dropped because the body overruns its slot of the
  // message buffer (longer than packet_bytes, or past message_bytes).
  std::uint64_t oversized_data_drops = 0;
  // High-water mark of out-of-order payload bytes held (selective repeat).
  std::uint64_t peak_reorder_bytes = 0;
  // Graceful degradation: EVICT notices accepted from the sender, SUSPECT
  // reports this node sent about its own stalled children (tree parents
  // only), and ring/tree structure re-formations performed.
  std::uint64_t evict_notices_received = 0;
  std::uint64_t suspects_sent = 0;
  std::uint64_t structure_reforms = 0;
  // Hybrid FEC: parity frames accepted, decode passes run, data blocks
  // reconstructed from parity (each one a retransmission avoided), and
  // GROUP_NAK fallbacks sent for groups parity could not repair.
  std::uint64_t parity_packets_received = 0;
  std::uint64_t fec_decodes = 0;
  std::uint64_t fec_blocks_recovered = 0;
  std::uint64_t group_naks_sent = 0;
};

}  // namespace rmc::rmcast
