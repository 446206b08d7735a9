#include "failure/trace.hpp"

#include <algorithm>
#include <fstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bgl {

FailureTrace::FailureTrace(std::vector<FailureEvent> events, int num_nodes)
    : num_nodes_(num_nodes), events_(std::move(events)) {
  BGL_CHECK(num_nodes_ > 0, "failure trace requires a positive node count");
  for (const FailureEvent& e : events_) {
    BGL_CHECK(e.node >= 0 && e.node < num_nodes_, "failure event node out of range");
  }
  std::sort(events_.begin(), events_.end(), [](const FailureEvent& a, const FailureEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.node < b.node;
  });
}

NodeSet FailureTrace::failing_nodes(double t0, double t1) const {
  NodeSet mask(num_nodes_);
  failing_nodes_into(mask, t0, t1);
  return mask;
}

void FailureTrace::failing_nodes_into(NodeSet& out, double t0, double t1) const {
  if (out.bits() != num_nodes_) out = NodeSet(num_nodes_);
  out.clear();
  auto cmp = [](const FailureEvent& e, double t) { return e.time <= t; };
  auto it = std::lower_bound(events_.begin(), events_.end(), t0, cmp);
  for (; it != events_.end() && it->time <= t1; ++it) out.set(it->node);
}

double FailureTrace::mean_rate_per_day() const {
  if (events_.size() < 2) return 0.0;
  const double span = events_.back().time - events_.front().time;
  if (span <= 0.0) return 0.0;
  return static_cast<double>(events_.size()) / (span / 86400.0);
}

FailureTrace read_failure_csv(const std::string& path, int num_nodes) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open failure trace: " + path);
  std::vector<FailureEvent> events;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string text = trim(line);
    if (text.empty() || text[0] == '#') continue;
    const auto fields = split(text, ',');
    if (fields.size() != 2) {
      throw ParseError("failure trace line " + std::to_string(line_number) +
                       ": expected 'time,node'");
    }
    const auto time = parse_double(trim(fields[0]));
    const auto node = parse_int(trim(fields[1]));
    if (!time || !node) {
      throw ParseError("failure trace line " + std::to_string(line_number) + ": bad values");
    }
    events.push_back(FailureEvent{*time, static_cast<int>(*node)});
  }
  return FailureTrace(std::move(events), num_nodes);
}

void write_failure_csv(const std::string& path, const FailureTrace& trace) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open failure trace output: " + path);
  out << "# time_seconds,node\n";
  for (const FailureEvent& e : trace.events()) {
    out << format_double(e.time, 3) << ',' << e.node << '\n';
  }
}

}  // namespace bgl
