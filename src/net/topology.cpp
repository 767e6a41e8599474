#include "net/topology.hpp"

namespace pmsb::net {
namespace {

/// log2 of a power of two (banyan/omega width is validated as one by
/// fabric::FabricConfig before any of this runs).
unsigned log2_exact(unsigned v) {
  unsigned b = 0;
  while ((1u << b) < v) ++b;
  return b;
}

/// Insert bit `v` at position `pos` of `e` (higher bits shift up): the
/// butterfly's element-to-line map. remove_bit is its inverse.
unsigned insert_bit(unsigned e, unsigned pos, unsigned v) {
  const unsigned high = e >> pos;
  const unsigned low = e & ((1u << pos) - 1);
  return (high << (pos + 1)) | (v << pos) | low;
}
unsigned remove_bit(unsigned line, unsigned pos) {
  const unsigned high = line >> (pos + 1);
  const unsigned low = line & ((1u << pos) - 1);
  return (high << pos) | low;
}
unsigned bit_at(unsigned line, unsigned pos) { return (line >> pos) & 1u; }

}  // namespace

Port opposite(Port port) {
  switch (port) {
    case kEast: return kWest;
    case kWest: return kEast;
    case kNorth: return kSouth;
    case kSouth: return kNorth;
    default: return kLocal;
  }
}

unsigned Topology::stages() const {
  switch (kind) {
    case TopologyKind::kBanyan:
    case TopologyKind::kOmega: return log2_exact(width);
    case TopologyKind::kClos: return 3;
    default: return 0;
  }
}

unsigned Topology::elements_per_stage() const {
  switch (kind) {
    case TopologyKind::kBanyan:
    case TopologyKind::kOmega: return width / 2;
    case TopologyKind::kClos: return radix;
    default: return 0;
  }
}

int Topology::neighbor(unsigned node, Port port) const {
  return neighbor(node, static_cast<unsigned>(port));
}

int Topology::neighbor(unsigned node, unsigned out_port) const {
  if (multistage()) {
    PMSB_CHECK(out_port < required_ports(), "multistage output port out of range");
    const unsigned s = stage_of(node);
    if (s + 1 >= stages()) return -1;  // last stage faces egress endpoints
    const unsigned e = element_of(node);
    switch (kind) {
      case TopologyKind::kBanyan: {
        // Line numbers are preserved between butterfly stages: output p of
        // element e is line insert_bit(e, k_s, p); stage s+1 switches the
        // pair differing in bit k_{s+1}.
        const unsigned n = stages();
        const unsigned line = insert_bit(e, n - 1 - s, out_port);
        return static_cast<int>(node_id(s + 1, remove_bit(line, n - 1 - (s + 1))));
      }
      case TopologyKind::kOmega: {
        // A perfect shuffle (rotate-left) sits between every pair of
        // stages; shuffled lines pair consecutively.
        const unsigned n = stages();
        const unsigned line = 2 * e + out_port;
        const unsigned shuffled = ((line << 1) | (line >> (n - 1))) & (width - 1);
        return static_cast<int>(node_id(s + 1, shuffled >> 1));
      }
      case TopologyKind::kClos:
        // Ingress j out p -> middle p; middle m out q -> egress q.
        return static_cast<int>(node_id(s + 1, out_port));
      default: break;
    }
    return -1;
  }
  const unsigned x = x_of(node);
  const unsigned y = y_of(node);
  const bool wrap = kind != TopologyKind::kMesh2D;
  switch (static_cast<Port>(out_port)) {
    case kEast:
      if (x + 1 < width) return static_cast<int>(node_at(x + 1, y));
      return wrap ? static_cast<int>(node_at(0, y)) : -1;
    case kWest:
      if (x > 0) return static_cast<int>(node_at(x - 1, y));
      return wrap ? static_cast<int>(node_at(width - 1, y)) : -1;
    case kSouth:
      if (y + 1 < height) return static_cast<int>(node_at(x, y + 1));
      return wrap ? static_cast<int>(node_at(x, 0)) : -1;
    case kNorth:
      if (y > 0) return static_cast<int>(node_at(x, y - 1));
      return wrap ? static_cast<int>(node_at(x, height - 1)) : -1;
    default:
      return -1;
  }
}

unsigned Topology::peer_in_port(unsigned node, unsigned out_port) const {
  PMSB_CHECK(neighbor(node, out_port) >= 0, "no link behind this output port");
  if (!multistage()) return opposite(static_cast<Port>(out_port));
  const unsigned s = stage_of(node);
  const unsigned e = element_of(node);
  switch (kind) {
    case TopologyKind::kBanyan: {
      const unsigned n = stages();
      const unsigned line = insert_bit(e, n - 1 - s, out_port);
      return bit_at(line, n - 1 - (s + 1));
    }
    case TopologyKind::kOmega: {
      const unsigned n = stages();
      const unsigned line = 2 * e + out_port;
      const unsigned shuffled = ((line << 1) | (line >> (n - 1))) & (width - 1);
      return shuffled & 1u;
    }
    case TopologyKind::kClos:
      // Ingress j out p -> middle p *input j*; middle m out q -> egress q
      // *input m*.
      return e;
    default: return 0;
  }
}

std::pair<unsigned, unsigned> Topology::ingress_of(unsigned endpoint) const {
  PMSB_CHECK(endpoint < endpoints(), "ingress_of: bad endpoint");
  if (!multistage()) return {endpoint, kLocal};
  switch (kind) {
    case TopologyKind::kBanyan: {
      // Endpoint i is stage-0 line i: element remove_bit(i, n-1), port = MSB.
      const unsigned n = stages();
      return {node_id(0, remove_bit(endpoint, n - 1)), bit_at(endpoint, n - 1)};
    }
    case TopologyKind::kOmega: {
      const unsigned n = stages();
      const unsigned shuffled = ((endpoint << 1) | (endpoint >> (n - 1))) & (width - 1);
      return {node_id(0, shuffled >> 1), shuffled & 1u};
    }
    case TopologyKind::kClos:
      return {node_id(0, endpoint / radix), endpoint % radix};
    default: return {0, 0};
  }
}

unsigned Topology::egress_endpoint(unsigned node, unsigned out_port) const {
  PMSB_CHECK(multistage() && stage_of(node) + 1 == stages(),
             "egress_endpoint: not a last-stage node");
  const unsigned e = element_of(node);
  switch (kind) {
    case TopologyKind::kBanyan:
      // After the last stage (bit 0) the line number *is* the destination.
      return insert_bit(e, 0, out_port);
    case TopologyKind::kOmega:
      // No trailing shuffle: the last stage's output line is the endpoint.
      return 2 * e + out_port;
    case TopologyKind::kClos:
      return e * radix + out_port;
    default: return 0;
  }
}

unsigned Topology::route_stage(unsigned node, unsigned in_port, unsigned dest) const {
  PMSB_CHECK(multistage() && dest < endpoints(), "route_stage: bad topology or dest");
  const unsigned s = stage_of(node);
  switch (kind) {
    case TopologyKind::kBanyan:
    case TopologyKind::kOmega:
      // The single destination-bit test: stage s corrects bit n-1-s.
      return bit_at(dest, stages() - 1 - s);
    case TopologyKind::kClos:
      if (s == 0) return (in_port + dest) % radix;  // middle spread rule
      if (s == 1) return dest / radix;              // egress element digit
      return dest % radix;                          // egress port digit
    default: return 0;
  }
}

Port Topology::route_xy(unsigned node, unsigned dest) const {
  PMSB_CHECK(!multistage(), "route_xy is for direct networks (use route_stage)");
  PMSB_CHECK(dest < nodes(), "destination node out of range");
  const unsigned x = x_of(node), y = y_of(node);
  const unsigned dx = x_of(dest), dy = y_of(dest);
  if (x != dx) {
    if (kind == TopologyKind::kMesh2D) return dx > x ? kEast : kWest;
    // Torus / ring: shortest way around.
    const unsigned fwd = (dx + width - x) % width;   // hops going east
    return fwd <= width - fwd ? kEast : kWest;
  }
  if (y != dy) {
    if (kind == TopologyKind::kMesh2D) return dy > y ? kSouth : kNorth;
    const unsigned fwd = (dy + height - y) % height;  // hops going south
    return fwd <= height - fwd ? kSouth : kNorth;
  }
  return kLocal;
}

unsigned Topology::hops(unsigned a, unsigned b) const {
  if (multistage()) {
    PMSB_CHECK(a < endpoints() && b < endpoints(), "endpoint out of range");
    return stages() - 1;  // every endpoint pair crosses all inter-stage links
  }
  PMSB_CHECK(a < nodes() && b < nodes(), "node out of range");
  const auto axis = [this](unsigned from, unsigned to, unsigned size) -> unsigned {
    const unsigned d = from > to ? from - to : to - from;
    if (kind == TopologyKind::kMesh2D) return d;
    return d <= size - d ? d : size - d;  // shorter way around the wrap
  };
  return axis(x_of(a), x_of(b), width) + axis(y_of(a), y_of(b), height);
}

unsigned Topology::diameter() const {
  if (multistage()) return stages() - 1;
  // hops() is separable per axis, so the worst pair is the worst per-axis
  // distance summed: full span on a mesh, half the wrap on a torus/ring.
  const auto axis = [this](unsigned size) -> unsigned {
    if (size <= 1) return 0;
    return kind == TopologyKind::kMesh2D ? size - 1 : size / 2;
  };
  return axis(width) + axis(height);
}

std::string Topology::describe() const {
  switch (kind) {
    case TopologyKind::kBanyan: return "banyan " + std::to_string(width);
    case TopologyKind::kOmega: return "omega " + std::to_string(width);
    case TopologyKind::kClos:
      return "clos " + std::to_string(width) + " (radix " + std::to_string(radix) + ")";
    default: break;
  }
  const char* k = kind == TopologyKind::kMesh2D  ? "mesh2d"
                  : kind == TopologyKind::kTorus2D ? "torus2d"
                                                   : "ring";
  return std::string(k) + " " + std::to_string(width) + "x" + std::to_string(height);
}

}  // namespace pmsb::net
