// Single registry for predictor models: the enum, its stable string forms,
// the oracle requirement, and the factory that builds a FaultPredictor from
// a spec. svc/SchedulerService (and through it the simulator), the CLIs
// (simulate_cli, sched_server) and the sweep engine (SweepSpec::predictors)
// all consume this one table, so adding a model is: extend the enum, the
// three switch statements below, and docs/PREDICTORS.md.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "predict/predictor.hpp"
#include "util/error.hpp"

namespace bgl {

/// Which predictor feeds the fault-aware placement policies.
enum class PredictorModel {
  kPaper,    ///< §4: balancing/tie-breaking predictors with knob `alpha`.
  kHistory,  ///< Extension: real past-only predictor (HistoryPredictor);
             ///  event-fed, needs no oracle, `alpha` becomes its per-node
             ///  confidence, lookback below.
  kPerfect,  ///< Oracle upper bound.
  kNone,     ///< Fault-oblivious regardless of scheduler kind.
};

const char* to_string(PredictorModel model);

/// Inverse of to_string(); nullopt on an unknown name (callers own the
/// error wording — CLI flag vs sweep spec vs protocol line).
std::optional<PredictorModel> parse_predictor_model(std::string_view name);

/// Which paper-simulated predictor kPaper maps to. The mapping is decided
/// by the scheduler kind (balancing scheduler -> BalancingPredictor,
/// tie-break -> TieBreakPredictor, krevat -> none), but the predict layer
/// cannot see SchedulerKind, so the clock owners pass the resolved role.
enum class PaperRole {
  kNull,       ///< Fault-unaware scheduler; kPaper degenerates to no flags.
  kBalancing,  ///< §4.1 BalancingPredictor (confidence alpha).
  kTieBreak,   ///< §4.2 TieBreakPredictor (accuracy alpha).
};

/// True when (model, role) answers queries from a ground-truth FailureTrace
/// and therefore cannot be built without one.
bool predictor_needs_oracle(PredictorModel model, PaperRole role);

/// Typed "this model needs a trace you didn't supply" error, raised by
/// make_predictor() — names the model so online frontends (sched_server)
/// can report exactly which flag to fix.
class OracleRequiredError : public ConfigError {
 public:
  OracleRequiredError(PredictorModel model, const std::string& what)
      : ConfigError(what), model_(model) {}
  PredictorModel model() const { return model_; }

 private:
  PredictorModel model_;
};

/// Everything the factory needs; mirrors the SimConfig/ServiceConfig knobs.
struct PredictorSpec {
  PredictorModel model = PredictorModel::kPaper;
  PaperRole paper_role = PaperRole::kNull;  ///< Consulted for kPaper only.
  /// Confidence (balancing/history) or accuracy (tie-break).
  double alpha = 0.0;
  double history_lookback = 7.0 * 86400.0;
  std::uint64_t seed = 1;  ///< Salts the tie-break predictor's coins.
};

/// Build the predictor a spec describes. `oracle` (borrowed, nullable) is
/// required iff predictor_needs_oracle(); a missing one raises
/// OracleRequiredError.
std::unique_ptr<FaultPredictor> make_predictor(const PredictorSpec& spec,
                                               int num_nodes,
                                               const FailureTrace* oracle);

}  // namespace bgl
