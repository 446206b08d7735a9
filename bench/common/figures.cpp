#include "common/figures.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>

namespace bgl::bench {

std::vector<FigureDef> all_figures() {
  std::vector<FigureDef> figures;
  figures.push_back(make_fig3());
  figures.push_back(make_fig4());
  figures.push_back(make_fig5());
  figures.push_back(make_fig6());
  figures.push_back(make_fig7());
  figures.push_back(make_fig8());
  figures.push_back(make_fig9());
  figures.push_back(make_fig10());
  figures.push_back(make_load_sweep());
  figures.push_back(make_ablation_pf_rule());
  figures.push_back(make_ablation_topology());
  figures.push_back(make_ablation_queue_order());
  figures.push_back(make_ablation_history_predictor());
  figures.push_back(make_ablation_backfill_migration());
  figures.push_back(make_ablation_checkpoint());
  figures.push_back(make_baselines());
  figures.push_back(make_predict());
  return figures;
}

namespace {

void write_outputs(const FigureDef& figure, const FigureOutput& output,
                   const exp::SweepResult& result, const std::string& dir,
                   std::ostream& out) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);

  for (const FigurePart& part : output.parts) {
    const std::string path = dir + "/" + part.csv_name + ".csv";
    try {
      part.table.write_csv(path);
      out << "[csv] " << path << "\n";
    } catch (const std::exception& e) {
      out << "[csv] skipped (" << e.what() << ")\n";
    }
  }

  for (const FigureArtifact& artifact : output.artifacts) {
    const std::string path = dir + "/" + artifact.file_name;
    std::ofstream file(path, std::ios::trunc);
    if (file) {
      file << artifact.content;
      out << "[artifact] " << path << "\n";
    } else {
      out << "[artifact] skipped (" << path << " not writable)\n";
    }
  }

  const std::string stats_path = dir + "/" + figure.name + ".stats.json";
  std::ofstream stats(stats_path, std::ios::trunc);
  if (stats) {
    stats << "{\"observability\":";
    result.counters().write_json(stats);
    stats << ",\"histograms\":";
    result.histograms().write_json(stats);
    stats << ",\"phases\":";
    result.profiler().write_json(stats);
    stats << "}\n";
    out << "[stats] " << stats_path << "\n";
  } else {
    out << "[stats] skipped (" << stats_path << " not writable)\n";
  }
}

}  // namespace

void run_figure(const FigureDef& figure, const FigureRunOptions& options,
                std::ostream& out) {
  out << figure.header << "\n";

  exp::RunOptions run_options;
  run_options.threads = options.threads;
  if (options.progress) {
    run_options.progress = [&out](std::size_t, std::size_t) {
      out << "." << std::flush;
    };
  }
  const exp::SweepResult result =
      exp::SweepRunner().run(figure.spec, run_options);

  const FigureOutput output = figure.render(result);
  for (const FigurePart& part : output.parts) {
    out << "\n\n";
    if (!part.heading.empty()) out << part.heading << "\n";
    out << part.table.render();
  }
  if (!output.notes.empty()) out << output.notes;
  out << "\n";

  write_outputs(figure, output, result, options.out_dir, out);
}

}  // namespace bgl::bench
