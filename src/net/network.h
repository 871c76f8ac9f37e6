// The network model: turns (source node, destination node, byte count) into
// transfer durations, with flow-count contention on both endpoints' NICs.
//
// Simplifications (documented in DESIGN.md):
//  * A flow's rate is fixed when it starts: rate = sampled path bandwidth
//    divided by the number of flows then active on the busier endpoint.
//    Flows are not re-rated when later flows start or finish — with map-task
//    reads lasting a second or two, the error is small and the model stays
//    O(1) per transfer.
//  * Latency is added once per transfer (TCP ramp-up and request RTTs are
//    folded into the sampled latency).
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/profile.h"
#include "net/topology.h"

namespace dare::net {

class Network {
 public:
  /// `topology` must outlive the network. `rng` is forked internally.
  Network(const ClusterProfile& profile, const Topology& topology, Rng& rng);

  /// One RTT sample between two nodes, in milliseconds (ping).
  double sample_rtt_ms(NodeId a, NodeId b);

  /// One uncontended path bandwidth sample in bytes/sec (iperf-like).
  BytesPerSec sample_path_bandwidth(NodeId src, NodeId dst);

  /// Duration of transferring `bytes` from `src` to `dst` given current
  /// contention. Does NOT register a flow; combine with flow_started /
  /// flow_finished for contention bookkeeping.
  SimDuration transfer_duration(NodeId src, NodeId dst, Bytes bytes);

  /// Contention bookkeeping: a remote read holds one flow on each endpoint
  /// for its duration. Cross-rack flows also occupy the racks' uplinks.
  void flow_started(NodeId src, NodeId dst);
  void flow_finished(NodeId src, NodeId dst);

  /// Active flow count on a node's NIC.
  int active_flows(NodeId node) const;

  /// Active cross-rack flows touching a rack's uplink.
  int active_uplink_flows(RackId rack) const;

  /// Network-fault state (mirrored from the cluster's episode chains).
  /// A partitioned rack is cut off from every other rack: transfers across
  /// the boundary are impossible and the caller must consult reachable()
  /// before planning one. Degradation limps instead of cutting: cross-rack
  /// transfers touching a degraded uplink keep `bandwidth_cut` of their
  /// rate and see `latency_inflation`× latency. Both apply *after* the
  /// stochastic samplers, so the RNG draw sequence — and therefore every
  /// run with faults disabled — is bit-identical to a build without them.
  void set_rack_partitioned(RackId rack, bool partitioned);
  /// Can `a` talk to `b` right now? Same-rack traffic never crosses the
  /// faulted switch; cross-rack traffic requires both endpoint racks
  /// connected.
  bool reachable(NodeId a, NodeId b) const;
  void set_uplink_degraded(RackId rack, bool degraded);
  /// Multipliers applied to transfers crossing a degraded uplink.
  void set_degradation_factors(double bandwidth_cut, double latency_inflation);

  const Topology& topology() const { return *topology_; }
  const ClusterProfile& profile() const { return profile_; }

 private:
  ClusterProfile profile_;
  const Topology* topology_;
  Rng rng_;
  std::vector<int> flows_;
  std::vector<int> uplink_flows_;     ///< per rack
  std::vector<char> partitioned_;     ///< per rack
  std::vector<char> degraded_links_;  ///< per rack uplink
  double bandwidth_cut_ = 1.0;
  double latency_inflation_ = 1.0;
};

}  // namespace dare::net
