#include "sim/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bgl {

std::size_t paper_failure_count(const SyntheticModel& model) {
  // §6.2: "4000 failures for each of NASA and SDSC job log based simulation
  // studies, and 1000 failures for LLNL job log based studies."
  return model.name == "llnl-t3d" ? 1000u : 4000u;
}

std::size_t span_scaled_events(std::size_t nominal, double span_seconds,
                               const SyntheticModel& model) {
  BGL_CHECK(model.reference_span_days > 0.0, "reference span must be positive");
  const double fraction = span_seconds / (model.reference_span_days * 86400.0);
  return static_cast<std::size_t>(
      std::llround(static_cast<double>(nominal) * fraction));
}

double apply_job_scale_env(SyntheticModel& model) {
  double scale = 1.0;
  if (const char* env = std::getenv("BGL_JOB_SCALE")) {
    const auto parsed = parse_double(env);
    if (!parsed || !std::isfinite(*parsed) || *parsed <= 0.0) {
      throw ConfigError("BGL_JOB_SCALE must be a positive finite number, got '" +
                        std::string(env) + "'");
    }
    scale = *parsed;
  }
  model.num_jobs = std::max(1, static_cast<int>(model.num_jobs * scale));
  return scale;
}

}  // namespace bgl
