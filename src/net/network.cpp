#include "net/network.h"

#include <cmath>

#include <algorithm>
#include <stdexcept>

namespace dare::net {

Network::Network(const ClusterProfile& profile, const Topology& topology,
                 Rng& rng)
    : profile_(profile),
      topology_(&topology),
      rng_(rng.fork()),
      flows_(topology.node_count(), 0),
      uplink_flows_(topology.rack_count(), 0),
      partitioned_(topology.rack_count(), 0),
      degraded_links_(topology.rack_count(), 0) {}

void Network::set_rack_partitioned(RackId rack, bool partitioned) {
  partitioned_.at(static_cast<std::size_t>(rack)) = partitioned ? 1 : 0;
}

bool Network::reachable(NodeId a, NodeId b) const {
  if (a == b || topology_->same_rack(a, b)) return true;
  return partitioned_[static_cast<std::size_t>(topology_->rack_of(a))] == 0 &&
         partitioned_[static_cast<std::size_t>(topology_->rack_of(b))] == 0;
}

void Network::set_uplink_degraded(RackId rack, bool degraded) {
  degraded_links_.at(static_cast<std::size_t>(rack)) = degraded ? 1 : 0;
}

void Network::set_degradation_factors(double bandwidth_cut,
                                      double latency_inflation) {
  bandwidth_cut_ = bandwidth_cut;
  latency_inflation_ = latency_inflation;
}

double Network::sample_rtt_ms(NodeId a, NodeId b) {
  const LatencyProfile& lat = profile_.latency;
  const int hops = topology_->hops(a, b);
  double rtt = lat.base_ms + lat.per_hop_ms * static_cast<double>(hops);
  // Lognormal queueing/virtualization jitter.
  rtt += std::exp(rng_.normal(lat.jitter_mu, lat.jitter_sigma));
  // Rare hypervisor-scheduling spike (EC2 only in practice).
  if (rng_.bernoulli(lat.spike_probability)) {
    rtt += rng_.uniform(lat.spike_min_ms, lat.spike_max_ms);
  }
  return rtt;
}

BytesPerSec Network::sample_path_bandwidth(NodeId src, NodeId dst) {
  const BandwidthProfile& bw = profile_.bandwidth;
  double mbps;
  if (rng_.bernoulli(bw.degraded_probability)) {
    mbps = rng_.uniform(bw.degraded_min, bw.degraded_max);
  } else {
    mbps = rng_.normal(bw.mean, bw.stddev);
  }
  if (topology_->hops(src, dst) > 4) mbps *= bw.cross_pod_penalty;
  mbps = std::clamp(mbps, bw.floor, bw.ceiling);
  return mb_per_sec(mbps);
}

void Network::flow_started(NodeId src, NodeId dst) {
  ++flows_.at(static_cast<std::size_t>(src));
  ++flows_.at(static_cast<std::size_t>(dst));
  if (src != dst && !topology_->same_rack(src, dst)) {
    ++uplink_flows_.at(static_cast<std::size_t>(topology_->rack_of(src)));
    ++uplink_flows_.at(static_cast<std::size_t>(topology_->rack_of(dst)));
  }
}

void Network::flow_finished(NodeId src, NodeId dst) {
  auto& fs = flows_.at(static_cast<std::size_t>(src));
  auto& fd = flows_.at(static_cast<std::size_t>(dst));
  if (fs <= 0 || fd <= 0) {
    throw std::logic_error("Network: flow_finished without flow_started");
  }
  --fs;
  --fd;
  if (src != dst && !topology_->same_rack(src, dst)) {
    auto& us =
        uplink_flows_.at(static_cast<std::size_t>(topology_->rack_of(src)));
    auto& ud =
        uplink_flows_.at(static_cast<std::size_t>(topology_->rack_of(dst)));
    if (us <= 0 || ud <= 0) {
      throw std::logic_error("Network: uplink accounting underflow");
    }
    --us;
    --ud;
  }
}

int Network::active_flows(NodeId node) const {
  return flows_.at(static_cast<std::size_t>(node));
}

int Network::active_uplink_flows(RackId rack) const {
  return uplink_flows_.at(static_cast<std::size_t>(rack));
}

SimDuration Network::transfer_duration(NodeId src, NodeId dst, Bytes bytes) {
  if (bytes < 0) throw std::invalid_argument("Network: negative bytes");
  if (src == dst) return 0;  // local copy, no network involved
  const BytesPerSec path = sample_path_bandwidth(src, dst);
  // The new flow will share each NIC with flows already active there; +1
  // accounts for the new flow itself.
  const int sharing = 1 + std::max(active_flows(src), active_flows(dst));
  BytesPerSec rate = path / static_cast<double>(sharing);
  // Cross-rack flows additionally share the oversubscribed rack uplinks.
  if (profile_.bandwidth.rack_uplink_mbps > 0.0 &&
      !topology_->same_rack(src, dst)) {
    const int uplink_sharing =
        1 + std::max(active_uplink_flows(topology_->rack_of(src)),
                     active_uplink_flows(topology_->rack_of(dst)));
    const BytesPerSec uplink_rate =
        mb_per_sec(profile_.bandwidth.rack_uplink_mbps) /
        static_cast<double>(uplink_sharing);
    rate = std::min(rate, uplink_rate);
  }
  double latency_s = sample_rtt_ms(src, dst) / 1e3;
  // Uplink degradation multiplies rate and latency *after* every sampler
  // above has drawn, so the stream position (and the arithmetic when no
  // uplink is degraded) is untouched by the fault subsystem.
  if (!topology_->same_rack(src, dst) &&
      (degraded_links_[static_cast<std::size_t>(topology_->rack_of(src))] !=
           0 ||
       degraded_links_[static_cast<std::size_t>(topology_->rack_of(dst))] !=
           0)) {
    rate *= bandwidth_cut_;
    latency_s *= latency_inflation_;
  }
  const double seconds = latency_s + static_cast<double>(bytes) / rate;
  return from_seconds(seconds);
}

}  // namespace dare::net
