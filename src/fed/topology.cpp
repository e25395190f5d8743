#include "fed/topology.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace gasched::fed {

Topology::Topology(std::size_t n) : n_(n), links_(n * n), out_(n) {
  if (n == 0) {
    throw std::invalid_argument("Topology: need at least one cluster");
  }
}

Topology Topology::full_mesh(std::size_t n, LinkParams link) {
  Topology t(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) t.add_link(i, j, link);
    }
  }
  return t;
}

Topology Topology::star(std::size_t n, std::size_t hub, LinkParams link) {
  Topology t(n);
  if (hub >= n) throw std::invalid_argument("Topology::star: hub out of range");
  for (std::size_t i = 0; i < n; ++i) {
    if (i == hub) continue;
    t.add_link(hub, i, link);
    t.add_link(i, hub, link);
  }
  return t;
}

Topology Topology::ring(std::size_t n, LinkParams link) {
  Topology t(n);
  if (n < 2) return t;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t next = (i + 1) % n;
    t.add_link(i, next, link);
    t.add_link(next, i, link);
  }
  return t;
}

void Topology::add_link(std::size_t from, std::size_t to, LinkParams link) {
  if (from >= n_ || to >= n_) {
    throw std::invalid_argument("Topology::add_link: cluster out of range");
  }
  if (from == to) {
    throw std::invalid_argument("Topology::add_link: self-link");
  }
  if (!(link.latency > 0.0) || !(link.bandwidth > 0.0)) {
    throw std::invalid_argument(
        "Topology::add_link: latency and bandwidth must be positive");
  }
  if (!links_[at(from, to)].has_value()) {
    auto& out = out_[from];
    out.insert(std::lower_bound(out.begin(), out.end(), to), to);
  }
  links_[at(from, to)] = link;
}

bool Topology::connected(std::size_t from, std::size_t to) const {
  return from < n_ && to < n_ && from != to && links_[at(from, to)].has_value();
}

const LinkParams* Topology::link(std::size_t from, std::size_t to) const {
  if (!connected(from, to)) return nullptr;
  return &*links_[at(from, to)];
}

sim::SimTime Topology::transfer_time(std::size_t from, std::size_t to,
                                     double mflops) const {
  const LinkParams* l = link(from, to);
  if (l == nullptr) {
    throw std::invalid_argument("Topology: clusters " + std::to_string(from) +
                                " and " + std::to_string(to) +
                                " are not linked");
  }
  return l->latency + mflops / l->bandwidth;
}

const std::vector<std::size_t>& Topology::neighbors(std::size_t from) const {
  static const std::vector<std::size_t> kNone;
  return from < n_ ? out_[from] : kNone;
}

std::size_t Topology::link_count() const {
  std::size_t c = 0;
  for (const auto& l : links_) {
    if (l.has_value()) ++c;
  }
  return c;
}

}  // namespace gasched::fed
