// Predictor ablation (extension): every PredictorModel on the oracle
// confidence axis. The paper's §4 predictors are simulated against the
// ground-truth failure log with a single quality knob alpha; this figure
// brackets them with the real, event-fed history predictor, which never
// sees the future, so its *realized* precision/recall can be placed on the
// oracle's alpha curve:
//
//   * scheduling outcome — the full predictors x alphas grid (new
//     SweepSpec::predictors axis) on SDSC under the balancing scheduler:
//     what each prediction source buys in slowdown/kills/lost work. The
//     oblivious (none) and oracle (perfect) rows repeat across alphas by
//     construction and bound the curve.
//   * forecast quality — evaluate_predictor() feeds each predictor the
//     truth events up to every sampled window start (exactly a live
//     deployment's information) and scores the flags against the window's
//     actual failures. Post-processing on a fixed-seed trace, so it lives
//     in the renderer, mirroring bench_ablation_history_predictor.
//
// Beyond the usual CSV/stats pair this emits BENCH_predict.json (schema
// below) — the artifact checked into docs/ and refreshed by the CI
// predict-smoke job. See docs/PREDICTORS.md for the model matrix.
#include <sstream>
#include <string>
#include <vector>

#include "common/bench_common.hpp"
#include "common/figures.hpp"
#include "failure/generator.hpp"
#include "predict/registry.hpp"
#include "util/strings.hpp"

namespace bgl::bench {

FigureDef make_predict() {
  const SyntheticModel model = bench_sdsc();
  const std::size_t nominal = paper_failure_count(model);

  const std::vector<PredictorModel> predictors = {
      PredictorModel::kNone, PredictorModel::kPaper, PredictorModel::kHistory,
      PredictorModel::kPerfect};
  const std::vector<double> alphas = {0.2, 0.5, 0.8};

  exp::SweepSpec spec;
  spec.name = "predict";
  spec.models = {{"SDSC", model}};
  spec.alphas = alphas;
  spec.predictors = predictors;

  FigureDef fig;
  fig.name = "predict";
  fig.summary = "Extension - every predictor model on the oracle alpha axis";
  fig.header =
      "Predictor ablation: model x alpha grid (SDSC, balancing, nominal " +
      std::to_string(nominal) + " failures)\n";

  fig.spec = std::move(spec);
  fig.render = [predictors, alphas, nominal](const exp::SweepResult& r) {
    FigureOutput out;

    // Realized forecast quality, measured the way a deployment would: truth
    // events fed up to each window start, flags scored against the window's
    // actual failures. The oracle row uses the same harness (it ignores the
    // feed) to keep every number on one footing.
    const FailureModel fm = FailureModel::bluegene_l(nominal, 730.0 * 86400.0);
    const FailureTrace trace = generate_failures(fm, 11);
    struct QualityRow {
      const char* label;
      PredictionQuality q;
    };
    std::vector<QualityRow> quality_rows;
    {
      HistoryPredictor history(fm.num_nodes, 7.0 * 86400.0);
      PerfectPredictor perfect(trace);
      const double window = 6.0 * 3600.0;
      const double step = 12.0 * 3600.0;
      quality_rows.push_back(
          {"history 7d", evaluate_predictor(history, trace, window, step)});
      quality_rows.push_back(
          {"perfect oracle", evaluate_predictor(perfect, trace, window, step)});

      Table quality({"predictor", "precision", "recall", "windows"});
      for (const QualityRow& row : quality_rows) {
        quality.add_row()
            .add(row.label)
            .add(row.q.precision, 3)
            .add(row.q.recall, 3)
            .add(static_cast<long long>(row.q.windows));
      }
      out.parts.push_back({"predict_quality",
                           "Realized forecast quality (6 h windows, online):",
                           std::move(quality)});
    }

    // Scheduling outcome across the full grid: predictor outer (each model's
    // alpha curve grouped), alpha inner.
    Table table({"predictor", "alpha", "slowdown", "kills", "utilized",
                 "lost"});
    std::ostringstream json;
    json << "{\n  \"schema_version\": 2,\n  \"stamp\": \"" << artifact_stamp()
         << "\",\n  \"model\": \"SDSC\",\n  \"scheduler\": \"balancing\",\n"
         << "  \"nominal_failures\": " << nominal << ",\n  \"quality\": {\n";
    for (std::size_t qi = 0; qi < quality_rows.size(); ++qi) {
      const QualityRow& row = quality_rows[qi];
      json << "    \"" << row.label << "\": {"
           << "\"precision\": " << format_double(row.q.precision, 4)
           << ", \"recall\": " << format_double(row.q.recall, 4)
           << ", \"windows\": " << static_cast<long long>(row.q.windows) << "}"
           << (qi + 1 < quality_rows.size() ? ",\n" : "\n");
    }
    json << "  },\n  \"scheduling\": {\n";
    for (std::size_t pi = 0; pi < predictors.size(); ++pi) {
      const char* name = to_string(predictors[pi]);
      json << "    \"" << name << "\": [\n";
      for (std::size_t ai = 0; ai < alphas.size(); ++ai) {
        const exp::PointSummary& p = r.at(0, 0, 0, 0, 0, ai, pi, 0);
        table.add_row()
            .add(name)
            .add(alphas[ai], 1)
            .add(p.slowdown, 1)
            .add(p.kills, 1)
            .add(p.utilization, 3)
            .add(p.lost, 3);
        json << "      {\"alpha\": " << format_double(alphas[ai], 1)
             << ", \"slowdown\": " << format_double(p.slowdown, 2)
             << ", \"kills\": " << format_double(p.kills, 1)
             << ", \"utilization\": " << format_double(p.utilization, 4)
             << ", \"lost\": " << format_double(p.lost, 4) << "}"
             << (ai + 1 < alphas.size() ? ",\n" : "\n");
      }
      json << "    ]" << (pi + 1 < predictors.size() ? ",\n" : "\n");
    }
    json << "  }\n}\n";
    out.parts.push_back({"predict", "", std::move(table)});
    out.artifacts.push_back({"BENCH_predict.json", json.str()});
    return out;
  };
  return fig;
}

}  // namespace bgl::bench
