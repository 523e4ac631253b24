// Ablation: where does IncAVT's speedup come from?
//
// The incremental tracker combines two mechanisms: (1) bounded K-order
// maintenance instead of per-snapshot rebuilds, and (2) candidate probing
// restricted to churn-impacted vertices. This bench separates them:
//
//   Greedy            rebuild + full Theorem-3 pool   (upper cost bound)
//   IncAVT-fullpool   maintained order + full pool    (isolates (1))
//   IncAVT            maintained order + restricted   (the algorithm)
//   IncAVT-carry      maintained order + no probing   (lower cost bound)
//
//   ./ablation_incavt [--scale=...] [--t=30] [--l=10]

#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "core/engine.h"
#include "core/inc_avt.h"
#include "core/run_summary.h"
#include "graph/delta_source.h"

using namespace avt;
using namespace avt::bench;

namespace {

AvtRunResult RunMode(const SnapshotSequence& sequence, uint32_t k,
                     uint32_t l, IncAvtMode mode) {
  AvtEngine engine(std::make_unique<IncAvtTracker>(k, l, mode),
                   std::make_unique<SequenceSource>(&sequence));
  Status status = engine.Drain();
  AVT_CHECK_MSG(status.ok(), status.ToString().c_str());
  AvtRunResult run = engine.TakeResult();
  run.algorithm = AvtAlgorithm::kIncAvt;
  run.k = k;
  run.l = l;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = ParseBenchConfig(argc, argv);

  TablePrinter table({"dataset", "variant", "time_ms", "visited",
                      "followers_total"});
  for (const DatasetInfo& info : SelectDatasets(config)) {
    SnapshotSequence sequence = BuildSequence(info, config);
    const uint32_t k = info.default_k;

    const RunSummary greedy =
        SummarizeRun(RunAvt(sequence, AvtAlgorithm::kGreedy, k, config.l));
    table.Row()
        .Str(info.name)
        .Str("Greedy (rebuild+full)")
        .Double(greedy.total_millis, 1)
        .UInt(greedy.total_candidates)
        .UInt(greedy.total_followers);

    struct Variant {
      IncAvtMode mode;
      const char* label;
    };
    for (const Variant& variant :
         {Variant{IncAvtMode::kMaintainedFull, "IncAVT-fullpool"},
          Variant{IncAvtMode::kRestricted, "IncAVT (published)"},
          Variant{IncAvtMode::kCarryForward, "IncAVT-carry"}}) {
      const RunSummary run =
          SummarizeRun(RunMode(sequence, k, config.l, variant.mode));
      table.Row()
          .Str(info.name)
          .Str(variant.label)
          .Double(run.total_millis, 1)
          .UInt(run.total_candidates)
          .UInt(run.total_followers);
    }
  }
  EmitTable("Ablation: IncAVT speedup decomposition", table,
            config.print_csv);
  std::printf("\nreading guide: fullpool isolates K-order maintenance; the "
              "published variant adds candidate\nrestriction; carry shows "
              "the quality cost of never re-probing.\n");
  return 0;
}
