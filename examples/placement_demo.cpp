// Placement demo: reproduces the paper's Figures 1 and 2 as ASCII scenarios.
//
// Figure 1 — the MFP heuristic: two placements of the same job, one of
// which preserves a larger maximal free partition.
// Figure 2 — fault-aware placement: (a)/(b) trading MFP size against a
// predicted-to-fail partition (the balancing algorithm's E_loss), and
// (c)/(d) breaking a tie between equal-MFP placements using the predictor
// (the tie-breaking algorithm).
//
// Scenarios run on a z = 0 slice of a 4x4x1 torus for readability; the
// engine underneath is the same PartitionCatalog/policy stack the full
// simulator uses.
#include <iostream>

#include "sched/policy.hpp"
#include "torus/catalog.hpp"
#include "util/strings.hpp"

namespace {

using namespace bgl;

/// Render a 4x4 slice: '#' busy, 'J' the candidate, 'X' flagged, '.' free.
std::string render(const Dims& dims, const NodeSet& occ, const NodeSet& job,
                   const NodeSet& flags) {
  std::string out;
  for (int y = dims.y - 1; y >= 0; --y) {
    out += "  ";
    for (int x = 0; x < dims.x; ++x) {
      const int id = node_id(dims, Coord{x, y, 0});
      char c = '.';
      if (occ.test(id)) c = '#';
      if (job.test(id)) c = 'J';
      if (flags.test(id)) c = occ.test(id) || job.test(id) ? '!' : 'X';
      out += c;
      out += ' ';
    }
    out += '\n';
  }
  return out;
}

int entry_of_box(const PartitionCatalog& catalog, const Box& box) {
  const Box canon = canonicalize(catalog.dims(), box);
  for (int i = 0; i < catalog.num_entries(); ++i) {
    if (catalog.entry(i).box == canon) return i;
  }
  return -1;
}

PlacementContext make_ctx(const PartitionCatalog& catalog, const NodeSet& occ,
                          const NodeSet& flags, double confidence, int job_size) {
  PlacementContext ctx;
  ctx.catalog = &catalog;
  ctx.occupied = &occ;
  ctx.mfp_before_index = catalog.first_free_index(occ);
  ctx.mfp_before_size =
      ctx.mfp_before_index < 0 ? 0 : catalog.entry(ctx.mfp_before_index).size;
  ctx.flagged = &flags;
  ctx.confidence = confidence;
  ctx.job_size = job_size;
  static PlacementArena arena;  // tie-break's score buffer
  ctx.arena = &arena;
  return ctx;
}

void figure1(const PartitionCatalog& catalog) {
  const Dims dims = catalog.dims();
  std::cout << "=== Figure 1: the MFP heuristic ===\n"
            << "A 2-node job arrives on a fragmented 4x4 slice. Placement (a)\n"
            << "splinters the free space; placement (b) preserves a large MFP.\n\n";

  NodeSet occ(dims.volume());
  // A busy L-shape: column x=0 plus node (1,0).
  for (int y = 0; y < dims.y; ++y) occ.set(node_id(dims, Coord{0, y, 0}));
  occ.set(node_id(dims, Coord{1, 0, 0}));

  const int a = entry_of_box(catalog, Box{Coord{2, 2, 0}, Triple{1, 2, 1}});
  const int b = entry_of_box(catalog, Box{Coord{1, 2, 0}, Triple{1, 2, 1}});
  NodeSet flags(dims.volume());

  for (const auto& [label, entry] : {std::pair{"(a)", a}, std::pair{"(b)", b}}) {
    NodeSet with = occ;
    with |= catalog.entry(entry).mask;
    std::cout << label << " MFP after placement: " << catalog.mfp(with) << "\n"
              << render(dims, occ, catalog.entry(entry).mask, flags) << '\n';
  }

  MfpLossPolicy policy;
  const int chosen = policy.choose(make_ctx(catalog, occ, flags, 0.0, 2), {a, b});
  std::cout << "MFP-loss policy picks " << (chosen == b ? "(b)" : "(a)")
            << " — the placement with the larger resulting MFP.\n\n";
}

void figure2ab(const PartitionCatalog& catalog) {
  const Dims dims = catalog.dims();
  std::cout << "=== Figure 2 (a)/(b): balancing MFP against stability ===\n"
            << "Two placements for a 4-node job: (a) keeps the best MFP but two\n"
            << "of its nodes are predicted to fail (X); (b) is safe but\n"
            << "splinters the free space. The E_loss trade-off flips with the\n"
            << "prediction confidence.\n\n";

  NodeSet occ(dims.volume());
  for (int y = 0; y < dims.y; ++y) occ.set(node_id(dims, Coord{0, y, 0}));
  occ.set(node_id(dims, Coord{1, 0, 0}));
  occ.set(node_id(dims, Coord{2, 0, 0}));

  const int a = entry_of_box(catalog, Box{Coord{1, 2, 0}, Triple{2, 2, 1}});
  const int b = entry_of_box(catalog, Box{Coord{2, 1, 0}, Triple{2, 2, 1}});
  NodeSet flags(dims.volume());
  flags.set(node_id(dims, Coord{1, 2, 0}));
  flags.set(node_id(dims, Coord{1, 3, 0}));

  for (const auto& [label, entry] : {std::pair{"(a)", a}, std::pair{"(b)", b}}) {
    NodeSet with = occ;
    with |= catalog.entry(entry).mask;
    const int k = catalog.entry(entry).mask.intersect_count(flags);
    std::cout << label << " MFP after: " << catalog.mfp(with) << ", flagged nodes in partition: " << k
              << '\n'
              << render(dims, occ, catalog.entry(entry).mask, flags) << '\n';
  }

  BalancingPolicy policy;
  for (const double a_conf : {0.1, 0.9}) {
    const int chosen =
        policy.choose(make_ctx(catalog, occ, flags, a_conf, 4), {a, b});
    std::cout << "balancing at confidence " << format_double(a_conf, 1) << " picks "
              << (chosen == a ? "(a) — MFP wins" : "(b) — stability wins") << '\n';
  }
  std::cout << '\n';
}

void figure2cd(const PartitionCatalog& catalog) {
  const Dims dims = catalog.dims();
  std::cout << "=== Figure 2 (c)/(d): tie-breaking between equal MFPs ===\n"
            << "Two placements with identical MFP loss; (c) contains a node the\n"
            << "predictor flags, (d) does not. The tie-breaking algorithm picks\n"
            << "(d); with no prediction the choice would be arbitrary.\n\n";

  NodeSet occ(dims.volume());
  for (int y = 0; y < dims.y; ++y) {
    occ.set(node_id(dims, Coord{0, y, 0}));
    occ.set(node_id(dims, Coord{1, y, 0}));
  }

  const int c = entry_of_box(catalog, Box{Coord{2, 0, 0}, Triple{2, 2, 1}});
  const int d = entry_of_box(catalog, Box{Coord{2, 2, 0}, Triple{2, 2, 1}});
  NodeSet flags(dims.volume());
  flags.set(node_id(dims, Coord{3, 1, 0}));  // inside (c)

  for (const auto& [label, entry] : {std::pair{"(c)", c}, std::pair{"(d)", d}}) {
    NodeSet with = occ;
    with |= catalog.entry(entry).mask;
    std::cout << label << " MFP after: " << catalog.mfp(with) << '\n'
              << render(dims, occ, catalog.entry(entry).mask, flags) << '\n';
  }

  TieBreakPolicy policy;
  const int chosen = policy.choose(make_ctx(catalog, occ, flags, 1.0, 4), {c, d});
  std::cout << "tie-breaking picks " << (chosen == d ? "(d)" : "(c)") << ".\n";
}

}  // namespace

int main() {
  const bgl::PartitionCatalog catalog(bgl::Dims{4, 4, 1});
  figure1(catalog);
  figure2ab(catalog);
  figure2cd(catalog);
  return 0;
}
