#include "traffic/workloads.h"

namespace tmsim::traffic {

std::vector<GtStream> fig1_gt_streams(const noc::NetworkConfig& net,
                                      SystemCycle period) {
  TMSIM_CHECK_MSG(net.width >= 4, "2-hop stream pattern needs width >= 4");
  TMSIM_CHECK_MSG(period >= 1, "GT stream period must be >= 1");
  std::vector<GtStream> streams;
  for (std::size_t y = 0; y < net.height; ++y) {
    for (std::size_t x = 0; x < net.width; ++x) {
      GtStream s;
      s.src = router_index(net, noc::Coord{x, y});
      // Two hops east where that stays on-grid, two hops west otherwise —
      // wrap-free, so the pattern works identically on mesh and torus and
      // contributes no wrap-around channel dependencies (see the torus
      // deadlock note in DESIGN.md §7).
      const std::size_t dx = (x + 2 < net.width) ? x + 2 : x - 2;
      s.dst = router_index(net, noc::Coord{dx, y});
      s.vc = static_cast<unsigned>(x % 2);
      s.period = period;
      // Stagger submissions so all streams do not burst on cycle 0.
      s.phase = (s.src * 17) % period;
      streams.push_back(s);
    }
  }
  TrafficHarness::validate_gt_streams(net, streams);
  return streams;
}

std::size_t max_stream_hops(const noc::NetworkConfig& net,
                            const std::vector<GtStream>& streams) {
  std::size_t hops = 0;
  for (const GtStream& s : streams) {
    hops = std::max(hops, route_hops(net, router_coord(net, s.src),
                                     router_coord(net, s.dst)));
  }
  return hops;
}

}  // namespace tmsim::traffic
