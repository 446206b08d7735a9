// Scheduler-portfolio baselines: backfill discipline x fault-aware
// predictor x load (docs/SCHEDULERS.md).
//
// The paper evaluates one discipline (krevat: FCFS + spatial backfilling
// behind the blocked head, no temporal reservation) against three
// placement/predictor pairings. This figure holds the pairing axis fixed
// per row and sweeps the discipline axis across the portfolio — krevat,
// EASY, conservative, EASY-holdback — at the standard and +20% load
// points, so the cost of reservation guarantees is measurable per
// predictor: conservative's no-delay promise trades throughput for
// fairness, holdback's free-node floor trades utilization for headroom.
//
// Row key: (c, scheduler, algorithm); all rows share workloads and failure
// traces (exp::derive_seeds depends on the repeat alone), so contrasts are
// paired. The krevat rows double as the regression anchor: they must match
// the same cells run before the algorithm seam existed (bench/golden pins
// this).
#include <string>

#include "common/bench_common.hpp"
#include "common/figures.hpp"

namespace bgl::bench {

FigureDef make_baselines() {
  const SyntheticModel model = bench_sdsc();
  const std::size_t nominal = paper_failure_count(model);

  exp::SweepSpec spec;
  spec.name = "baselines";
  spec.models = {{"SDSC", model}};
  spec.load_scales = {1.0, 1.2};
  spec.schedulers = {SchedulerKind::kKrevat, SchedulerKind::kBalancing,
                     SchedulerKind::kTieBreak};
  spec.algorithms = {SchedAlgorithm::kKrevat, SchedAlgorithm::kEasy,
                     SchedAlgorithm::kConservative,
                     SchedAlgorithm::kEasyHoldback};
  spec.alphas = {0.1};

  FigureDef fig;
  fig.name = "baselines";
  fig.summary =
      "Scheduler portfolio - backfill discipline x predictor x load (SDSC)";
  fig.header =
      "Baselines: discipline x scheduler at c = 1.0 / 1.2 (SDSC, nominal " +
      std::to_string(nominal) + " failures, alpha 0.1)\n" +
      "seeds/point: " + std::to_string(spec.repeats()) +
      ", jobs/run: " + std::to_string(model.num_jobs) + "\n";
  fig.spec = std::move(spec);
  fig.render = [](const exp::SweepResult& r) {
    static const SchedulerKind kSchedulers[] = {SchedulerKind::kKrevat,
                                                SchedulerKind::kBalancing,
                                                SchedulerKind::kTieBreak};
    static const SchedAlgorithm kAlgorithms[] = {
        SchedAlgorithm::kKrevat, SchedAlgorithm::kEasy,
        SchedAlgorithm::kConservative, SchedAlgorithm::kEasyHoldback};
    Table table({"c", "scheduler", "algorithm", "slowdown", "wait_s",
                 "util", "kills", "migrations"});
    for (std::size_t li = 0; li < r.shape().loads; ++li) {
      const double c = li == 0 ? 1.0 : 1.2;
      for (std::size_t si = 0; si < r.shape().schedulers; ++si) {
        for (std::size_t gi = 0; gi < r.shape().algorithms; ++gi) {
          const exp::PointSummary& p = r.at(0, li, 0, si, gi, 0, 0, 0);
          table.add_row()
              .add(c, 1)
              .add(std::string(to_string(kSchedulers[si])))
              .add(std::string(to_string(kAlgorithms[gi])))
              .add(p.slowdown, 1)
              .add(p.wait, 1)
              .add(p.utilization, 3)
              .add(p.kills, 1)
              .add(p.migrations, 1);
        }
      }
    }
    FigureOutput out;
    out.parts.push_back({"baselines", "", std::move(table)});
    return out;
  };
  return fig;
}

}  // namespace bgl::bench
