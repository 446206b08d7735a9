// The figure registry: every paper figure / ablation as a declarative
// sweep against the exp:: engine.
//
// Each bench/bench_*.cpp translation unit declares exactly one figure — an
// exp::SweepSpec (the axes) plus a renderer (grid → tables) — via a
// make_*() factory below. tools/bench_runner is the one front end:
// run_figure() executes the spec on a thread pool (exp::SweepRunner),
// prints the rendered tables, and writes the figure's outputs:
//
//   ${out_dir}/<csv name>.csv          one per rendered table, byte-for-byte
//                                      the historical per-figure CSVs
//   ${out_dir}/<figure>.stats.json     merged counter + histogram + phase
//                                      dump over every simulation of the
//                                      figure
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "util/table.hpp"

namespace bgl::bench {

/// One rendered table of a figure (a figure may have several panels).
struct FigurePart {
  std::string csv_name;   ///< CSV base name (no directory, no extension).
  std::string heading;    ///< Console heading (may be empty).
  Table table;
};

/// A non-CSV file a figure wants written next to its tables (e.g.
/// bench_predict's BENCH_predict.json). Content is written verbatim.
struct FigureArtifact {
  std::string file_name;  ///< Name inside the output directory.
  std::string content;
};

struct FigureOutput {
  std::vector<FigurePart> parts;
  std::vector<FigureArtifact> artifacts;
  std::string notes;      ///< Extra console text (e.g. fig3's §1 claim check).
};

/// A figure: declarative axes + pure renderer. The spec is built when the
/// factory runs (it reads the BGL_JOB_SCALE / BGL_BENCH_SEEDS environment),
/// and the renderer is a pure function of the executed grid.
struct FigureDef {
  std::string name;       ///< Registry key and stats name, e.g. "fig3".
  std::string summary;    ///< One-liner for `bench_runner --list`.
  std::string header;     ///< Console preamble printed before the run.
  exp::SweepSpec spec;
  std::function<FigureOutput(const exp::SweepResult&)> render;
};

// One factory per bench/bench_*.cpp translation unit.
FigureDef make_fig3();
FigureDef make_fig4();
FigureDef make_fig5();
FigureDef make_fig6();
FigureDef make_fig7();
FigureDef make_fig8();
FigureDef make_fig9();
FigureDef make_fig10();
FigureDef make_load_sweep();
FigureDef make_ablation_pf_rule();
FigureDef make_ablation_topology();
FigureDef make_ablation_queue_order();
FigureDef make_ablation_history_predictor();
FigureDef make_ablation_backfill_migration();
FigureDef make_ablation_checkpoint();
FigureDef make_baselines();
FigureDef make_predict();

/// All figures, in paper order. Built fresh on every call (the specs
/// depend on the environment; set BGL_JOB_SCALE / BGL_BENCH_SEEDS first).
std::vector<FigureDef> all_figures();

struct FigureRunOptions {
  int threads = 1;
  std::string out_dir = "bench_out";
  bool progress = true;     ///< Print one '.' per completed simulation.
};

/// Execute one figure: run the sweep, print header/tables/notes to `out`,
/// and write the CSV, artifact and stats.json outputs (best effort; an
/// unwritable directory prints a note instead of aborting).
void run_figure(const FigureDef& figure, const FigureRunOptions& options,
                std::ostream& out);

}  // namespace bgl::bench
