// Ablation (extension): a *real* predictor instead of the paper's simulated
// one. The HistoryPredictor flags nodes that failed within a trailing
// lookback window — no future information — exploiting the burstiness and
// repeat-offender skew of real failure logs. This bench reports (a) its
// measured precision/recall on the generated traces and (b) the scheduling
// outcome it buys, bracketed by the fault-oblivious baseline and the oracle.
#include <string>
#include <vector>

#include "common/bench_common.hpp"
#include "common/figures.hpp"
#include "failure/generator.hpp"
#include "predict/predictor.hpp"

namespace bgl::bench {

FigureDef make_ablation_history_predictor() {
  const SyntheticModel model = bench_sdsc();
  const std::size_t nominal = paper_failure_count(model);

  struct Variant {
    const char* label;
    PredictorModel predictor;
    double alpha;
    double lookback_days;
  };
  const Variant variants[] = {
      {"none (oblivious)", PredictorModel::kNone, 0.0, 0.0},
      {"paper a=0.1", PredictorModel::kPaper, 0.1, 0.0},
      {"history 3d", PredictorModel::kHistory, 0.3, 3.0},
      {"history 7d", PredictorModel::kHistory, 0.3, 7.0},
      {"perfect oracle", PredictorModel::kPerfect, 1.0, 0.0},
  };

  exp::SweepSpec spec;
  spec.name = "ablation_history_predictor";
  spec.models = {{"SDSC", model}};
  for (const Variant& v : variants) {
    SimConfig proto;
    proto.predictor_model = v.predictor;
    if (v.lookback_days > 0.0) proto.history_lookback = v.lookback_days * 86400.0;
    // The per-variant confidence rides on the config (each predictor is
    // meaningful at its own alpha), not on the alpha axis.
    spec.configs.push_back({v.label, proto, v.alpha});
  }

  FigureDef fig;
  fig.name = "ablation_history_predictor";
  fig.summary = "Extension - history-based predictor vs paper's simulated one";
  fig.header =
      "Extension: history-based predictor (SDSC, balancing, c=1.0, nominal " +
      std::to_string(nominal) + " failures)\n";

  std::vector<std::string> labels;
  for (const exp::ConfigCase& cc : spec.configs) labels.push_back(cc.label);

  fig.spec = std::move(spec);
  fig.render = [labels, nominal](const exp::SweepResult& r) {
    FigureOutput out;

    // Measure the predictor's forecast quality on a representative trace.
    // Pure post-processing: no simulation, a fixed seed, so it lives in the
    // renderer rather than on a sweep axis.
    {
      FailureModel fm = FailureModel::bluegene_l(nominal, 730.0 * 86400.0);
      const FailureTrace trace = generate_failures(fm, 11);
      Table quality({"lookback_days", "precision", "recall", "windows"});
      for (const double days : {1.0, 3.0, 7.0, 30.0}) {
        HistoryPredictor predictor(fm.num_nodes, days * 86400.0);
        const PredictionQuality q =
            evaluate_predictor(predictor, trace, /*window=*/6.0 * 3600.0,
                               /*step=*/12.0 * 3600.0);
        quality.add_row()
            .add(days, 0)
            .add(q.precision, 3)
            .add(q.recall, 3)
            .add(static_cast<long long>(q.windows));
      }
      out.parts.push_back({"ablation_history_predictor_quality",
                           "Forecast quality (6 h windows):",
                           std::move(quality)});
    }

    Table table({"predictor", "slowdown", "kills", "utilized", "lost"});
    for (std::size_t ci = 0; ci < r.shape().configs; ++ci) {
      const exp::PointSummary& p = r.at(0, 0, 0, 0, 0, 0, 0, ci);
      table.add_row()
          .add(labels[ci])
          .add(p.slowdown, 1)
          .add(p.kills, 1)
          .add(p.utilization, 3)
          .add(p.lost, 3);
    }
    out.parts.push_back({"ablation_history_predictor", "", std::move(table)});
    return out;
  };
  return fig;
}

}  // namespace bgl::bench
