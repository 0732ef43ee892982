#include "analysis/walk.hpp"

#include <unordered_set>

namespace advh::analysis {

namespace {

struct walk_state {
  walk_result out;
  /// Every node ever visited (alias detection across subtrees).
  std::unordered_set<const nn::layer*> seen;
  /// Nodes on the current descent path (cycle detection).
  std::unordered_set<const nn::layer*> path;
};

void visit(const nn::layer& l, std::size_t top_index, std::size_t depth,
           walk_state& st) {
  if (st.path.count(&l) != 0) {
    st.out.anomalies.push_back(
        walk_anomaly{walk_anomaly::kind::cycle, top_index, l.name()});
    return;
  }
  if (!st.seen.insert(&l).second) {
    st.out.anomalies.push_back(
        walk_anomaly{walk_anomaly::kind::aliased, top_index, l.name()});
    return;
  }
  walk_entry e;
  e.node = &l;
  e.top_index = top_index;
  e.depth = depth;
  std::size_t children = 0;
  l.for_each_child([&](const nn::layer&) { ++children; });
  e.leaf = children == 0;
  st.out.entries.push_back(e);

  st.path.insert(&l);
  l.for_each_child(
      [&](const nn::layer& c) { visit(c, top_index, depth + 1, st); });
  st.path.erase(&l);
}

}  // namespace

walk_result walk_graph_checked(const nn::sequential& root) {
  walk_state st;
  for (std::size_t i = 0; i < root.size(); ++i) {
    visit(root.at(i), i, 0, st);
  }
  return st.out;
}

}  // namespace advh::analysis
