// Build-stable names for the cases of value-parameterized test suites.
//
// Every suite builds its case names from the case's fields with these
// helpers, and tests/CMakeLists.txt discovers with NO_PRETTY_VALUES, so
// ctest lists gtest's own names. By default ctest's discovery names a case
// by its printed parameter, and a struct with no printer prints as its raw
// bytes, padding included, which differ from one build to the next. gtest
// accepts only letters, digits and underscores in a name.
#pragma once

#include <sstream>
#include <string>

#include "sched/types.hpp"
#include "sim/driver.hpp"
#include "torus/coords.hpp"

namespace bgl::test {

/// "Krevat", "Balancing" or "TieBreak".
inline std::string scheduler_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kKrevat: return "Krevat";
    case SchedulerKind::kBalancing: return "Balancing";
    case SchedulerKind::kTieBreak: return "TieBreak";
  }
  return "Unknown";
}

/// "NoBackfill", "Easy" or "Conservative".
inline std::string backfill_name(BackfillMode mode) {
  switch (mode) {
    case BackfillMode::kNone: return "NoBackfill";
    case BackfillMode::kEasy: return "Easy";
    case BackfillMode::kConservative: return "Conservative";
  }
  return "Unknown";
}

/// A number as a name fragment: 0.1 -> "0p1", 1 -> "1".
inline std::string number_name(double value) {
  std::ostringstream out;
  out << value;
  std::string name = out.str();
  for (char& c : name) {
    if (c == '.') c = 'p';
    if (c == '-') c = 'm';
  }
  return name;
}

/// "4x4x8".
inline std::string dims_name(const Dims& dims) {
  return std::to_string(dims.x) + "x" + std::to_string(dims.y) + "x" +
         std::to_string(dims.z);
}

/// "Torus" or "Mesh".
inline std::string topology_name(Topology topology) {
  return topology == Topology::kTorus ? "Torus" : "Mesh";
}

}  // namespace bgl::test
