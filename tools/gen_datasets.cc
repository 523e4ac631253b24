// gen_datasets: materializes the six Table-2 replicas to disk so other
// tooling (or a skeptical reader) can inspect exactly what the benches
// run on.
//
//   ./gen_datasets [--dir=data] [--scale=0.1] [--t=30] [--seed=42]
//
// For churn datasets it writes the initial snapshot plus one edge-list
// per snapshot; for temporal datasets the raw event log plus windowed
// snapshots. Each dataset also gets a binary edge log
// (<name>.avtb, graph/edge_log.h) holding the SAME delta stream —
// `avt_cli stream --source=binlog --binlog=data/<name>.avtb` replays
// it without any text parsing (pass --no-binlog to skip). A --t below
// 1, a --scale not above 0, or a value that does not parse exits 2
// before anything is written.

#include <cstdio>
#include <filesystem>
#include <string>

#include "flag_readers.h"
#include "gen/datasets.h"
#include "graph/delta_source.h"
#include "graph/edge_log.h"
#include "graph/io.h"
#include "util/flags.h"

using namespace avt;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const std::string dir = flags.GetString("dir", "data");
  double scale = 0;
  size_t T = 0;
  uint64_t seed = 0;
  if (!cli::ReadDoubleFlag(flags, "scale", 0.1, stderr, &scale,
                           cli::kPositive) ||
      !cli::ReadIntFlag(flags, "t", size_t{10}, stderr, &T, 1) ||
      !cli::ReadIntFlag(flags, "seed", uint64_t{42}, stderr, &seed)) {
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  for (const DatasetInfo& info : AllDatasets()) {
    SnapshotSequence sequence = MakeDatasetSnapshots(info, scale, T, seed);
    for (size_t t = 0; t < sequence.NumSnapshots(); ++t) {
      std::string path =
          dir + "/" + info.name + "_t" + std::to_string(t) + ".txt";
      Status status = SaveEdgeList(sequence.Materialize(t), path);
      if (!status.ok()) {
        std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
        return 1;
      }
    }
    if (flags.GetBool("no-binlog", false)) {
      std::printf("%-14s -> %zu snapshots under %s/ (n=%u)\n",
                  info.name.c_str(), sequence.NumSnapshots(), dir.c_str(),
                  sequence.NumVertices());
      continue;
    }
    const std::string binlog = dir + "/" + info.name + ".avtb";
    SequenceSource source(&sequence);
    auto written = WriteEdgeLog(source, binlog);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   written.status().ToString().c_str());
      return 1;
    }
    std::printf("%-14s -> %zu snapshots + %s (n=%u, %llu bytes)\n",
                info.name.c_str(), sequence.NumSnapshots(), binlog.c_str(),
                sequence.NumVertices(),
                static_cast<unsigned long long>(written.value().bytes));
  }
  return 0;
}
