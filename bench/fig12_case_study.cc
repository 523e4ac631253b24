// Figure 12 + Section 6.4 case study: follower counts of the four
// approximate algorithms against the brute-force optimum on the eu-core
// replica with l = 2, k = 3, per snapshot.
//
// The paper reports the approximate algorithms land within a whisker of
// the exact optimum (follower counts 0-7); the same closeness should be
// visible here.
//
//   ./fig12_case_study [--t=20] [--scale=1.0] [--seed=42]

#include <cstdio>

#include "bench_common.h"
#include "core/run_summary.h"

using namespace avt;
using namespace avt::bench;

int main(int argc, char** argv) {
  BenchConfig config = ParseBenchConfig(argc, argv);
  const uint32_t k = 3;
  const uint32_t l = 2;
  size_t T = config.T > 20 ? 20 : config.T;  // the paper plots T <= 20

  const DatasetInfo& info = DatasetByName("eu-core");
  BenchConfig sequence_config = config;
  sequence_config.T = T;
  SnapshotSequence sequence = BuildSequence(info, sequence_config);

  const std::vector<AvtAlgorithm> algorithms{
      AvtAlgorithm::kOlak, AvtAlgorithm::kGreedy, AvtAlgorithm::kIncAvt,
      AvtAlgorithm::kRcm, AvtAlgorithm::kBruteForce};

  std::vector<AvtRunResult> runs;
  for (AvtAlgorithm algorithm : algorithms) {
    runs.push_back(RunAvt(sequence, algorithm, k, l));
  }

  TablePrinter table({"T", "OLAK", "Greedy", "IncAVT", "RCM",
                      "Brute-force"});
  for (size_t t = 0; t < T; ++t) {
    auto row = table.Row();
    row.UInt(t);
    for (const AvtRunResult& run : runs) {
      row.UInt(run.snapshots[t].num_followers);
    }
  }
  EmitTable("Figure 12: follower number comparison (eu-core, l=2, k=3)",
            table, config.print_csv);

  // Shape check the paper emphasizes: the heuristics stay close to the
  // optimum.
  uint64_t brute = SummarizeRun(runs.back()).total_followers;
  std::printf("\ntotal followers across snapshots: brute-force=%lu",
              static_cast<unsigned long>(brute));
  for (size_t i = 0; i + 1 < runs.size(); ++i) {
    std::printf(", %s=%lu", AvtAlgorithmName(algorithms[i]),
                static_cast<unsigned long>(
                    SummarizeRun(runs[i]).total_followers));
  }
  std::printf("\n");
  return 0;
}
