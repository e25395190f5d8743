#pragma once
// Inter-cluster link topology for federated simulations.
//
// arXiv:1404.2989's peering analysis motivates treating the adjacency
// structure between providers as a first-class experimental axis rather
// than a hard-coded mesh: which clusters may exchange spillover work, and
// at what cost, changes the equilibrium as much as the schedulers do. A
// Topology is a directed graph over cluster indices with per-link latency
// and bandwidth; migrating a task of s MFLOPs over a link costs
// latency + s / bandwidth simulated seconds. Factories cover the three
// canonical shapes (full mesh, star, ring); custom adjacencies come from
// [link.*] INI sections (see fed::federation_from_config).

#include <cstddef>
#include <optional>
#include <vector>

#include "sim/types.hpp"

namespace gasched::fed {

/// Cost model of one directed inter-cluster link.
struct LinkParams {
  /// Fixed per-transfer setup time (seconds).
  double latency = 0.05;
  /// Payload rate (MFLOPs of task description per second). Task payloads
  /// are proportional to their work, mirroring the intra-cluster model.
  double bandwidth = 1e5;
};

/// Directed graph of clusters with per-link cost parameters.
class Topology {
 public:
  /// An edgeless topology over `n` clusters.
  explicit Topology(std::size_t n);

  /// Every ordered pair of distinct clusters is linked with `link`.
  static Topology full_mesh(std::size_t n, LinkParams link = {});
  /// Spokes exchange work only through `hub` (hub↔spoke links both ways).
  static Topology star(std::size_t n, std::size_t hub, LinkParams link = {});
  /// Cluster i links to (i±1) mod n, both directions.
  static Topology ring(std::size_t n, LinkParams link = {});

  /// Adds (or overwrites) the directed link from → to. Throws
  /// std::invalid_argument on self-links, out-of-range indices, or
  /// non-positive latency/bandwidth.
  void add_link(std::size_t from, std::size_t to, LinkParams link);

  /// Number of clusters.
  std::size_t size() const noexcept { return n_; }

  /// True when a directed from → to link exists.
  bool connected(std::size_t from, std::size_t to) const;

  /// Link parameters of from → to, or nullptr when unlinked.
  const LinkParams* link(std::size_t from, std::size_t to) const;

  /// Transfer time for a task of `mflops` over from → to. Throws
  /// std::invalid_argument when the clusters are not linked.
  sim::SimTime transfer_time(std::size_t from, std::size_t to,
                             double mflops) const;

  /// Out-neighbours of `from` in ascending index order (the tie-break
  /// order every migration policy uses, keeping runs deterministic).
  /// Empty for an out-of-range index. The reference stays valid until
  /// the next add_link().
  const std::vector<std::size_t>& neighbors(std::size_t from) const;

  /// Total number of directed links.
  std::size_t link_count() const;

 private:
  std::size_t at(std::size_t from, std::size_t to) const {
    return from * n_ + to;
  }
  std::size_t n_ = 0;
  std::vector<std::optional<LinkParams>> links_;  // dense n×n, row-major
  std::vector<std::vector<std::size_t>> out_;     // sorted out-neighbours
};

}  // namespace gasched::fed
