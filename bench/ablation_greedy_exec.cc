// Ablation: Greedy execution strategies (scan vs lazy).
//
// The eager scan is the paper's algorithm verbatim; the certified-bound
// lazy loop (the library default) replaces most full oracle queries with
// phase-1 bound probes. Both are bit-identical in output — the table
// quantifies the work trade (full queries vs bound probes vs wall time),
// and the harness aborts if the variants ever diverge.
//
//   ./ablation_greedy_exec [--scale=...] [--l=10]

#include <cstdio>

#include "anchor/anchored_core.h"
#include "anchor/greedy.h"
#include "bench_common.h"
#include "util/timer.h"

using namespace avt;
using namespace avt::bench;

int main(int argc, char** argv) {
  BenchConfig config = ParseBenchConfig(argc, argv);

  TablePrinter table({"dataset", "variant", "time_ms", "full_queries",
                      "bound_probes", "followers"});
  for (const DatasetInfo& info : SelectDatasets(config)) {
    double scale = config.scale > 0 ? config.scale : DefaultScale(info);
    Graph g = MakeDatasetGraph(info, scale, config.seed);
    const uint32_t k = info.default_k;

    struct Variant {
      GreedyOptions options;
      const char* label;
    };
    GreedyOptions scan;
    scan.lazy = false;
    GreedyOptions lazy;  // library default

    std::vector<VertexId> scan_anchors;
    for (const Variant& variant :
         {Variant{scan, "scan (paper)"}, Variant{lazy, "lazy (default)"}}) {
      GreedySolver solver(variant.options);
      Timer timer;
      SolverResult result = solver.Solve(g, k, config.l);
      double ms = timer.ElapsedMillis();
      if (!variant.options.lazy) {
        scan_anchors = result.anchors;
      } else {
        AVT_CHECK_MSG(result.anchors == scan_anchors,
                      "greedy execution strategies diverged");
      }
      table.Row()
          .Str(info.name)
          .Str(variant.label)
          .Double(ms, 1)
          .UInt(result.candidates_visited)
          .UInt(result.bound_probes)
          .UInt(result.num_followers());
    }
  }
  EmitTable("Ablation: Greedy execution strategies", table,
            config.print_csv);
  std::printf("\nboth variants are bit-identical (checked): the lazy "
              "loop's certified bounds guarantee the scan's pick per\n"
              "step — the columns show where the work went instead.\n");
  return 0;
}
