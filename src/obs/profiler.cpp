#include "obs/profiler.hpp"

#include <ostream>

namespace bgl::obs {

std::string_view phase_name(Phase p) {
  switch (p) {
    case Phase::kDesEvent: return "des.event";
    case Phase::kSvcEvent: return "svc.event";
    case Phase::kSvcIndex: return "svc.index";
    case Phase::kSchedPass: return "sched.pass";
    case Phase::kEnumerate: return "sched.enumerate";
    case Phase::kPlace: return "sched.place";
    case Phase::kScore: return "sched.score";
    case Phase::kPredict: return "sched.predict";
    case Phase::kBackfill: return "sched.backfill";
    case Phase::kMigration: return "sched.migration";
    case Phase::kReservation: return "sched.reservation";
    case Phase::kCount_: break;
  }
  return "unknown";
}

void PhaseProfiler::reset() {
  nodes_ = {};
  for (auto& row : child_lookup_) row.fill(-1);
  num_nodes_ = 0;
  depth_ = 0;
  overflow_ = 0;
  dropped_ = 0;
}

void PhaseProfiler::merge(const PhaseProfiler& other) {
  // Parents are always interned before their children (a parent span opens
  // first), so one forward walk in index order can remap the whole tree.
  std::array<std::int16_t, kMaxNodes> map{};
  for (std::size_t i = 0; i < other.num_nodes_; ++i) {
    const Node& on = other.nodes_[i];
    std::int16_t mine = -2;
    if (on.parent < 0) {
      mine = intern(kRoot, on.phase);
    } else {
      const std::int16_t parent = map[static_cast<std::size_t>(on.parent)];
      if (parent >= 0) mine = intern(parent, on.phase);
    }
    map[i] = mine;
    if (mine >= 0) {
      Node& n = nodes_[static_cast<std::size_t>(mine)];
      n.count += on.count;
      n.total_ns += on.total_ns;
      n.child_ns += on.child_ns;
      if (on.max_ns > n.max_ns) n.max_ns = on.max_ns;
    } else {
      dropped_ += on.count;
    }
  }
  dropped_ += other.dropped_;
}

std::uint64_t PhaseProfiler::count(Phase p) const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < num_nodes_; ++i) {
    if (nodes_[i].phase == p) sum += nodes_[i].count;
  }
  return sum;
}

std::uint64_t PhaseProfiler::total_ns(Phase p) const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < num_nodes_; ++i) {
    if (nodes_[i].phase == p) sum += nodes_[i].total_ns;
  }
  return sum;
}

std::uint64_t PhaseProfiler::self_ns(Phase p) const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < num_nodes_; ++i) {
    const Node& n = nodes_[i];
    if (n.phase != p) continue;
    sum += n.total_ns - (n.child_ns > n.total_ns ? n.total_ns : n.child_ns);
  }
  return sum;
}

std::string PhaseProfiler::path_of(std::size_t node) const {
  std::array<std::int16_t, kMaxDepth> chain{};
  std::size_t len = 0;
  std::int16_t cur = static_cast<std::int16_t>(node);
  while (cur >= 0 && len < chain.size()) {
    chain[len++] = cur;
    cur = nodes_[static_cast<std::size_t>(cur)].parent;
  }
  std::string path;
  for (std::size_t i = len; i-- > 0;) {
    if (!path.empty()) path += '/';
    path += phase_name(nodes_[static_cast<std::size_t>(chain[i])].phase);
  }
  return path;
}

PhaseProfiler::NodeView PhaseProfiler::node_view(std::size_t i) const {
  const Node& n = nodes_[i];
  const std::uint64_t child = n.child_ns > n.total_ns ? n.total_ns : n.child_ns;
  NodeView view;
  view.path = path_of(i);
  view.phase = phase_name(n.phase);
  view.count = n.count;
  view.total_ns = n.total_ns;
  view.self_ns = n.total_ns - child;
  view.max_ns = n.max_ns;
  return view;
}

void PhaseProfiler::write_node_json(std::ostream& out, std::size_t node) const {
  const Node& n = nodes_[node];
  const std::uint64_t child = n.child_ns > n.total_ns ? n.total_ns : n.child_ns;
  out << "{\"phase\":\"" << phase_name(n.phase) << "\",\"count\":" << n.count
      << ",\"total_ns\":" << n.total_ns << ",\"self_ns\":" << (n.total_ns - child)
      << ",\"max_ns\":" << n.max_ns;
  bool first = true;
  for (std::size_t c = 0; c < num_nodes_; ++c) {
    if (nodes_[c].parent != static_cast<std::int16_t>(node)) continue;
    out << (first ? ",\"children\":[" : ",");
    first = false;
    write_node_json(out, c);
  }
  if (!first) out << "]";
  out << "}";
}

void PhaseProfiler::write_json(std::ostream& out) const {
  out << "{\"dropped\":" << dropped_ << ",\"tree\":[";
  bool first = true;
  for (std::size_t i = 0; i < num_nodes_; ++i) {
    if (nodes_[i].parent != kRoot) continue;
    if (!first) out << ",";
    first = false;
    write_node_json(out, i);
  }
  out << "]}";
}

void PhaseProfiler::append_stats_fields(std::string& out) const {
  for (std::size_t i = 0; i < num_nodes_; ++i) {
    const Node& n = nodes_[i];
    const std::string path = path_of(i);
    const std::uint64_t child = n.child_ns > n.total_ns ? n.total_ns : n.child_ns;
    out += ",\"ph_count:" + path + "\":" + std::to_string(n.count);
    out += ",\"ph_total_ns:" + path + "\":" + std::to_string(n.total_ns);
    out += ",\"ph_self_ns:" + path + "\":" + std::to_string(n.total_ns - child);
  }
}

}  // namespace bgl::obs
