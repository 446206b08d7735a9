// Appendix 9: asymptotic comparison of the free-partition finder algorithms.
//
//   naive    — enumerate all boxes of all sizes then filter: O(M^9) empty-torus
//   pop      — Krevat's Projection of Partitions: O(M^5) family
//   divisor  — the paper's divisor-shape finder with base skipping
//   catalog  — this library's production scan path (precomputed masks; the
//              build cost is amortised across a whole simulation, queries
//              are word-ops)
//   index    — FreePartitionIndex, the incremental occupancy-aware view the
//              simulator actually schedules with (src/torus/index.hpp)
//
// Run on empty and half-occupied M x M x M tori for growing M; the paper's
// claim is the divisor finder's "significant performance improvement over
// the naive algorithm and POP-based partition finder".
//
// `--perf-smoke` bypasses Google Benchmark and runs a fixed scheduler-shaped
// query mix (partition deltas over each entry's word span, as the scheduler
// applies them; single-node fail/repair deltas; MFP, candidate enumeration,
// per-candidate overlay MFP) twice — once through catalog scans, once
// through the index — on both index kernels: the 4x4x8 box catalog (cover
// rows) and the 64x32x32 block catalog at min_block 256 (buddy tree). It
// checks the answers agree bit-for-bit, prints the speedups, and exits
// non-zero if either catalog's index diverges from or is slower than its
// scans. CI runs this in Release mode.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <vector>

#include "torus/catalog.hpp"
#include "torus/finders.hpp"
#include "torus/index.hpp"
#include "util/rng.hpp"

namespace {

using namespace bgl;

NodeSet occupancy(const Dims& dims, double density, std::uint64_t seed) {
  Rng rng(seed);
  NodeSet occ(dims.volume());
  for (int i = 0; i < dims.volume(); ++i) {
    if (rng.bernoulli(density)) occ.set(i);
  }
  return occ;
}

/// Partition size swept: half a z-column's worth scales with the torus.
int probe_size(int m) { return m * m / 2 > 0 ? (m * m / 2) * 2 / 2 : 1; }

void BM_FinderNaive(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 100.0;
  const Dims dims = Dims::cube(m);
  const NodeSet occ = occupancy(dims, density, 42);
  const int s = probe_size(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_free_naive(dims, occ, s));
  }
}

void BM_FinderPop(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 100.0;
  const Dims dims = Dims::cube(m);
  const NodeSet occ = occupancy(dims, density, 42);
  const int s = probe_size(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_free_pop(dims, occ, s));
  }
}

void BM_FinderDivisor(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 100.0;
  const Dims dims = Dims::cube(m);
  const NodeSet occ = occupancy(dims, density, 42);
  const int s = probe_size(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_free_divisor(dims, occ, s));
  }
}

void BM_CatalogQuery(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 100.0;
  const Dims dims = Dims::cube(m);
  const PartitionCatalog catalog(dims);
  const NodeSet occ = occupancy(dims, density, 42);
  const int s = probe_size(m);
  std::vector<int> out;
  for (auto _ : state) {
    out.clear();
    catalog.free_entries_of_size(occ, s, out);
    benchmark::DoNotOptimize(out);
  }
}

void BM_CatalogBuild(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PartitionCatalog catalog(Dims::cube(m));
    benchmark::DoNotOptimize(catalog.num_entries());
  }
}

void BM_CatalogMfp(benchmark::State& state) {
  const PartitionCatalog catalog(Dims::bluegene_l());
  const NodeSet occ = occupancy(Dims::bluegene_l(),
                                static_cast<double>(state.range(0)) / 100.0, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(catalog.mfp(occ));
  }
}

// ---------------------------------------------------------------------------
// FreePartitionIndex vs the catalog scans it replaces, at matched density.

void BM_IndexMfp(benchmark::State& state) {
  const PartitionCatalog catalog(Dims::bluegene_l());
  FreePartitionIndex index(catalog);
  index.reset(occupancy(Dims::bluegene_l(),
                        static_cast<double>(state.range(0)) / 100.0, 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.mfp());
  }
}

/// The policy loop's inner query: MFP after overlaying one candidate mask.
/// Scan version rescans the catalog (fused OR) from the hint; the index only
/// tests entries already free under the base occupancy.
void BM_CatalogMfpWith(benchmark::State& state) {
  const PartitionCatalog catalog(Dims::bluegene_l());
  const NodeSet occ = occupancy(Dims::bluegene_l(),
                                static_cast<double>(state.range(0)) / 100.0, 7);
  const int hint = catalog.first_free_index(occ);
  const NodeSet& extra = catalog.entry(hint < 0 ? 0 : hint).mask;
  for (auto _ : state) {
    benchmark::DoNotOptimize(catalog.mfp_with(occ, extra, hint < 0 ? 0 : hint));
  }
}

void BM_IndexMfpWith(benchmark::State& state) {
  const PartitionCatalog catalog(Dims::bluegene_l());
  FreePartitionIndex index(catalog);
  index.reset(occupancy(Dims::bluegene_l(),
                        static_cast<double>(state.range(0)) / 100.0, 7));
  const int hint = index.first_free_index();
  const NodeSet& extra = catalog.entry(hint < 0 ? 0 : hint).mask;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.mfp_with(extra, hint < 0 ? 0 : hint));
  }
}

void BM_IndexFreeOfSize(benchmark::State& state) {
  const PartitionCatalog catalog(Dims::bluegene_l());
  FreePartitionIndex index(catalog);
  index.reset(occupancy(Dims::bluegene_l(),
                        static_cast<double>(state.range(0)) / 100.0, 7));
  const int s = catalog.allocatable_size(8);
  std::vector<int> out;
  for (auto _ : state) {
    out.clear();
    index.free_entries_of_size(s, out);
    benchmark::DoNotOptimize(out);
  }
}

/// Cost of keeping the index current: occupy + release the first entry of
/// `size` nodes, with every other node busy at probability 1/2 (a release
/// on box catalogs pays per node still busy).
void bench_update(benchmark::State& state, const PartitionCatalog& catalog,
                  int size) {
  const int e = catalog.size_range(size).first;
  const NodeSet& mask = catalog.entry(e).mask;
  NodeSet base = occupancy(catalog.dims(), 0.5, 7);
  base.subtract(mask);
  FreePartitionIndex index(catalog);
  index.reset(base);
  for (auto _ : state) {
    index.occupy(mask, catalog.entry(e).span());
    index.release(mask, catalog.entry(e).span());
    benchmark::DoNotOptimize(index.mfp());
  }
}

const PartitionCatalog& full_machine_blocks() {
  static const PartitionCatalog catalog = [] {
    CatalogOptions options;
    options.mode = CatalogOptions::Mode::kBlocks;
    options.min_block = 256;
    return PartitionCatalog(Dims{64, 32, 32}, Topology::kTorus, options);
  }();
  return catalog;
}

/// Box catalog (4x4x8), delta of state.range(0) nodes.
void BM_IndexUpdate(benchmark::State& state) {
  static const PartitionCatalog catalog(Dims::bluegene_l());
  bench_update(state, catalog, static_cast<int>(state.range(0)));
}

/// Block catalog (64x32x32, min_block 256), delta of state.range(0) nodes.
void BM_IndexUpdateBlocks(benchmark::State& state) {
  bench_update(state, full_machine_blocks(), static_cast<int>(state.range(0)));
}

/// A node failure and its repair (occupy_node + release_node) on a
/// half-busy machine: range(0) 0 = box catalog (4x4x8), 1 = block catalog
/// (64x32x32).
void BM_IndexNodeDelta(benchmark::State& state) {
  static const PartitionCatalog boxes(Dims::bluegene_l());
  const PartitionCatalog& catalog =
      state.range(0) == 0 ? boxes : full_machine_blocks();
  NodeSet base = occupancy(catalog.dims(), 0.5, 7);
  const int node = catalog.num_nodes() / 2;
  base.reset(node);
  FreePartitionIndex index(catalog);
  index.reset(base);
  for (auto _ : state) {
    index.occupy_node(node);
    index.release_node(node);
    benchmark::DoNotOptimize(index.mfp());
  }
}

void BM_IndexBuild(benchmark::State& state) {
  const PartitionCatalog catalog(Dims::bluegene_l());
  for (auto _ : state) {
    FreePartitionIndex index(catalog);
    benchmark::DoNotOptimize(index.mfp());
  }
}

// ---------------------------------------------------------------------------
// --perf-smoke: differential timing of the scheduler-shaped query mix.

struct SmokeOp {
  enum class Kind { kOccupy, kRelease, kFail, kRepair };
  Kind kind;
  int target;  ///< catalog entry whose mask is the delta, or the node
               ///< failed (kFail) or repaired (kRepair)
  std::array<int, 3> query_sizes;  ///< job sizes scheduled after the delta
};

/// Scripted mixed-occupancy churn shaped like the simulator's steady state:
/// pack random non-overlapping partitions until the torus is mostly full,
/// release random live ones, fail and repair single free nodes now and then
/// (the service's down-node deltas), and after every delta run a
/// scheduler-pass-like query mix (head job + backfill depth = several
/// sizes, each with a policy loop evaluating the overlay MFP per
/// candidate). The script is generated once so both timed passes replay
/// identical work.
std::vector<SmokeOp> make_smoke_script(const PartitionCatalog& catalog,
                                       int steps) {
  Rng rng(2024);
  NodeSet occ(catalog.num_nodes());
  std::vector<int> live;
  std::vector<int> failed;  // down nodes, outside every live partition
  std::vector<SmokeOp> script;
  script.reserve(static_cast<std::size_t>(steps));
  for (int t = 0; t < steps; ++t) {
    SmokeOp op{};
    if (rng.bernoulli(0.1)) {  // a node delta
      if (!failed.empty() && rng.bernoulli(0.5)) {
        const std::size_t i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::uint64_t>(failed.size() - 1)));
        op.kind = SmokeOp::Kind::kRepair;
        op.target = failed[i];
        occ.reset(failed[i]);
        failed[i] = failed.back();
        failed.pop_back();
      } else {
        const int node = static_cast<int>(rng.uniform_int(
            0, static_cast<std::uint64_t>(catalog.num_nodes() - 1)));
        if (occ.test(node)) continue;  // busy or already down
        op.kind = SmokeOp::Kind::kFail;
        op.target = node;
        occ.set(node);
        failed.push_back(node);
      }
    } else {
      // Many tries: keeps the torus packed (~high occupancy), the regime
      // the paper's schedulers actually operate in and where MFP scans go
      // deep.
      const int tries = 64;
      int chosen = -1;
      for (int k = 0; k < tries; ++k) {
        const int e = static_cast<int>(rng.uniform_int(
            0, static_cast<std::uint64_t>(catalog.num_entries() - 1)));
        if (!catalog.entry(e).mask.intersects(occ)) {
          chosen = e;
          break;
        }
      }
      if (chosen >= 0 && (live.empty() || rng.bernoulli(0.7))) {
        op.kind = SmokeOp::Kind::kOccupy;
        op.target = chosen;
        occ |= catalog.entry(chosen).mask;
        live.push_back(chosen);
      } else if (!live.empty()) {
        const std::size_t i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::uint64_t>(live.size() - 1)));
        op.kind = SmokeOp::Kind::kRelease;
        op.target = live[i];
        occ.subtract(catalog.entry(live[i]).mask);
        live[i] = live.back();
        live.pop_back();
      } else {
        continue;  // nothing free to occupy and nothing live to release
      }
    }
    for (int& s : op.query_sizes) {
      s = catalog.allocatable_size(static_cast<int>(
          rng.uniform_int(1, static_cast<std::uint64_t>(catalog.num_nodes()))));
    }
    script.push_back(op);
  }
  return script;
}

constexpr int kSmokeCandidates = 32;  ///< overlay MFPs per size (policy loop)

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return h * 1315423911ull + v + 1;
}

/// One replay through catalog scans. Returns a checksum over every answer.
std::uint64_t run_smoke_scan(const PartitionCatalog& catalog,
                             const std::vector<SmokeOp>& script) {
  NodeSet occ(catalog.num_nodes());
  std::vector<int> cand;
  std::uint64_t h = 0;
  for (const SmokeOp& op : script) {
    // Partition deltas cover the entry's word span, as the scheduler and the
    // service pass them; node ops carry a node id, not an entry.
    switch (op.kind) {
      case SmokeOp::Kind::kOccupy: {
        const PartitionCatalog::Entry& e = catalog.entry(op.target);
        occ.unite(e.mask, e.span());
        break;
      }
      case SmokeOp::Kind::kRelease: {
        const PartitionCatalog::Entry& e = catalog.entry(op.target);
        occ.subtract(e.mask, e.span());
        break;
      }
      case SmokeOp::Kind::kFail: occ.set(op.target); break;
      case SmokeOp::Kind::kRepair: occ.reset(op.target); break;
    }
    const int mfp_index = catalog.first_free_index(occ);
    h = mix(h, static_cast<std::uint64_t>(mfp_index + 1));
    h = mix(h, static_cast<std::uint64_t>(catalog.mfp(occ)));
    const int hint = mfp_index < 0 ? 0 : mfp_index;
    for (const int s : op.query_sizes) {
      cand.clear();
      catalog.free_entries_of_size(occ, s, cand);
      h = mix(h, cand.size());
      const int n = static_cast<int>(cand.size()) < kSmokeCandidates
                        ? static_cast<int>(cand.size())
                        : kSmokeCandidates;
      for (int i = 0; i < n; ++i) {
        h = mix(h, static_cast<std::uint64_t>(
                       catalog.mfp_with(occ, catalog.entry(cand[i]).mask, hint)));
      }
    }
  }
  return h;
}

/// The same replay through the incremental index.
std::uint64_t run_smoke_index(const PartitionCatalog& catalog,
                              FreePartitionIndex& index,
                              const std::vector<SmokeOp>& script) {
  index.reset();
  std::vector<int> cand;
  std::uint64_t h = 0;
  for (const SmokeOp& op : script) {
    switch (op.kind) {
      case SmokeOp::Kind::kOccupy: {
        const PartitionCatalog::Entry& e = catalog.entry(op.target);
        index.occupy(e.mask, e.span());
        break;
      }
      case SmokeOp::Kind::kRelease: {
        const PartitionCatalog::Entry& e = catalog.entry(op.target);
        index.release(e.mask, e.span());
        break;
      }
      case SmokeOp::Kind::kFail: index.occupy_node(op.target); break;
      case SmokeOp::Kind::kRepair: index.release_node(op.target); break;
    }
    const int mfp_index = index.first_free_index();
    h = mix(h, static_cast<std::uint64_t>(mfp_index + 1));
    h = mix(h, static_cast<std::uint64_t>(index.mfp()));
    const int hint = mfp_index < 0 ? 0 : mfp_index;
    for (const int s : op.query_sizes) {
      cand.clear();
      index.free_entries_of_size(s, cand);
      h = mix(h, cand.size());
      const int n = static_cast<int>(cand.size()) < kSmokeCandidates
                        ? static_cast<int>(cand.size())
                        : kSmokeCandidates;
      for (int i = 0; i < n; ++i) {
        h = mix(h, static_cast<std::uint64_t>(
                       index.mfp_with(catalog.entry(cand[i]).mask, hint)));
      }
    }
  }
  return h;
}

/// The smoke on one catalog: 0 when the index agrees with the scans and is
/// faster, 2 when an answer diverges, 1 when the index is slower.
int smoke_catalog(const char* name, const PartitionCatalog& catalog) {
  FreePartitionIndex index(catalog);
  const std::vector<SmokeOp> script = make_smoke_script(catalog, 2000);
  const auto node_deltas = std::count_if(
      script.begin(), script.end(), [](const SmokeOp& op) {
        return op.kind == SmokeOp::Kind::kFail ||
               op.kind == SmokeOp::Kind::kRepair;
      });
  std::printf("perf-smoke: %zu deltas (%td node fail/repair) on the "
              "%d-entry %s catalog\n",
              script.size(), node_deltas, catalog.num_entries(), name);

  using clock = std::chrono::steady_clock;
  constexpr int kReps = 3;  // best-of to shave scheduler noise
  double scan_s = 1e100, index_s = 1e100;
  std::uint64_t scan_h = 0, index_h = 0;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = clock::now();
    scan_h = run_smoke_scan(catalog, script);
    const auto t1 = clock::now();
    index_h = run_smoke_index(catalog, index, script);
    const auto t2 = clock::now();
    scan_s = std::min(scan_s, std::chrono::duration<double>(t1 - t0).count());
    index_s = std::min(index_s, std::chrono::duration<double>(t2 - t1).count());
  }

  if (scan_h != index_h) {
    std::printf("perf-smoke: FAIL — index answers diverge from catalog scans "
                "(checksum %llx vs %llx)\n",
                static_cast<unsigned long long>(scan_h),
                static_cast<unsigned long long>(index_h));
    return 2;
  }
  const double speedup = scan_s / index_s;
  std::printf("perf-smoke: agreement OK (checksum %llx)\n",
              static_cast<unsigned long long>(scan_h));
  std::printf("perf-smoke: scan %.3f ms, index %.3f ms, speedup %.1fx %s\n",
              scan_s * 1e3, index_s * 1e3, speedup,
              speedup >= 5.0 ? "(>=5x target met)" : "(below 5x target)");
  if (speedup < 1.0) {
    std::printf("perf-smoke: FAIL — index slower than the scan baseline\n");
    return 1;
  }
  return 0;
}

int run_perf_smoke() {
  const PartitionCatalog boxes(Dims::bluegene_l());
  const int boxes_rc = smoke_catalog("4x4x8 box", boxes);
  const int blocks_rc =
      smoke_catalog("64x32x32 block (min_block 256)", full_machine_blocks());
  return std::max(boxes_rc, blocks_rc);
}

}  // namespace

// Empty (density 0) and fragmented (density 50) tori, growing M. The naive
// finder is capped at M=8; it is O(M^9) and exists only as the strawman.
BENCHMARK(BM_FinderNaive)->Args({4, 0})->Args({4, 50})->Args({6, 0})->Args({6, 50})->Args({8, 0})->Args({8, 50})->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FinderPop)->Args({4, 0})->Args({4, 50})->Args({6, 0})->Args({6, 50})->Args({8, 0})->Args({8, 50})->Args({12, 0})->Args({12, 50})->Args({16, 0})->Args({16, 50})->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FinderDivisor)->Args({4, 0})->Args({4, 50})->Args({6, 0})->Args({6, 50})->Args({8, 0})->Args({8, 50})->Args({12, 0})->Args({12, 50})->Args({16, 0})->Args({16, 50})->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CatalogQuery)->Args({4, 0})->Args({4, 50})->Args({6, 0})->Args({6, 50})->Args({8, 0})->Args({8, 50})->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CatalogBuild)->Arg(4)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CatalogMfp)->Arg(0)->Arg(30)->Arg(60)->Arg(90)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_IndexMfp)->Arg(0)->Arg(30)->Arg(60)->Arg(90)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CatalogMfpWith)->Arg(0)->Arg(30)->Arg(60)->Arg(90)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_IndexMfpWith)->Arg(0)->Arg(30)->Arg(60)->Arg(90)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_IndexFreeOfSize)->Arg(0)->Arg(30)->Arg(60)->Arg(90)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_IndexUpdate)->Arg(1)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_IndexUpdateBlocks)->Arg(256)->Arg(2048)->Arg(16384)->Arg(65536)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_IndexNodeDelta)->Arg(0)->Arg(1)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_IndexBuild)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--perf-smoke") return run_perf_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
