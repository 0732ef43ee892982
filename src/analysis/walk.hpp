// Flattening walk over a layer graph.
//
// Containers (sequential) and composite blocks (residual/dense) expose
// their direct sub-layers via layer::for_each_child; the walk linearises
// the whole tree in execution order while remembering, for every node,
// the index of the top-level layer that owns it — the coordinate the
// verifier's findings report.
//
// A malformed for_each_child wiring (a layer reachable from itself, or
// one layer object registered under two parents) would make the naive
// recursion unbounded or double-count a layer's computation. The walk
// therefore tracks visited nodes: an already-visited child is never
// descended into again, and the defect is reported as a walk_anomaly
// (verifier codes ADVH-E140 graph-cycle / ADVH-E141 layer-aliased).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nn/sequential.hpp"

namespace advh::analysis {

struct walk_entry {
  const nn::layer* node = nullptr;
  /// Index of the owning top-level layer within the root graph.
  std::size_t top_index = 0;
  /// Nesting depth: 0 for top-level layers themselves.
  std::size_t depth = 0;
  /// True when the node owns no sub-layers (a computational leaf).
  bool leaf = true;
};

/// Structural defect found while walking (the walk stays bounded by
/// refusing to re-enter the offending node).
struct walk_anomaly {
  enum class kind {
    cycle,    ///< child is one of its own ancestors
    aliased,  ///< child already reached through another parent
  };
  kind k = kind::cycle;
  /// Top-level index under which the repeated node was re-encountered.
  std::size_t top_index = 0;
  /// Instance name of the repeated node.
  std::string node_name;
};

struct walk_result {
  std::vector<walk_entry> entries;
  std::vector<walk_anomaly> anomalies;
};

/// Linearises `root`'s layer tree in execution order, recording structural
/// anomalies instead of recursing into them. The root container itself is
/// not included.
walk_result walk_graph_checked(const nn::sequential& root);

}  // namespace advh::analysis
