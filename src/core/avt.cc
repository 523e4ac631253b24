#include "core/avt.h"

#include "anchor/brute_force.h"
#include "anchor/greedy.h"
#include "anchor/olak.h"
#include "anchor/rcm.h"
#include "core/engine.h"
#include "core/inc_avt.h"
#include "corelib/decomposition.h"
#include "durability/serde.h"
#include "graph/delta_source.h"
#include "util/timer.h"

namespace avt {

const char* AvtAlgorithmName(AvtAlgorithm algorithm) {
  switch (algorithm) {
    case AvtAlgorithm::kGreedy: return "Greedy";
    case AvtAlgorithm::kOlak: return "OLAK";
    case AvtAlgorithm::kRcm: return "RCM";
    case AvtAlgorithm::kIncAvt: return "IncAVT";
    case AvtAlgorithm::kBruteForce: return "Brute-force";
  }
  return "unknown";
}

double AvtRunResult::TotalMillis() const {
  double total = 0;
  for (const auto& s : snapshots) total += s.millis;
  return total;
}

uint64_t AvtRunResult::TotalCandidatesVisited() const {
  uint64_t total = 0;
  for (const auto& s : snapshots) total += s.candidates_visited;
  return total;
}

uint64_t AvtRunResult::TotalFollowers() const {
  uint64_t total = 0;
  for (const auto& s : snapshots) total += s.num_followers;
  return total;
}

AvtSnapshotResult StaticAvtTracker::SolveSnapshot() {
  Timer timer;
  AvtSnapshotResult snap;
  snap.t = t_;
  SolverResult solved = solver_->Solve(graph_, k_, l_);
  snap.anchors = solved.anchors;
  snap.num_followers = solved.num_followers();
  snap.candidates_visited = solved.candidates_visited;

  CoreDecomposition cores = DecomposeCores(graph_);
  uint32_t kcore = 0;
  for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
    if (cores.core[v] >= k_) ++kcore;
  }
  uint32_t anchors_outside = 0;
  for (VertexId a : solved.anchors) {
    if (cores.core[a] < k_) ++anchors_outside;
  }
  snap.kcore_size = kcore;
  snap.anchored_core_size = kcore + anchors_outside + snap.num_followers;
  snap.millis = timer.ElapsedMillis();
  return snap;
}

AvtSnapshotResult StaticAvtTracker::ProcessFirst(const Graph& g0) {
  t_ = 0;
  graph_ = g0;
  return SolveSnapshot();
}

AvtSnapshotResult StaticAvtTracker::ProcessDelta(const EdgeDelta& delta) {
  ++t_;
  delta.Apply(graph_);  // from-scratch families maintain their own copy
  return SolveSnapshot();
}

bool StaticAvtTracker::SaveCheckpointState(std::string* out) const {
  out->clear();
  serde::PutU64(out, t_);
  serde::PutU32(out, graph_.NumVertices());
  for (VertexId u = 0; u < graph_.NumVertices(); ++u) {
    const std::span<const VertexId> neighbors = graph_.Neighbors(u);
    serde::PutU32(out, static_cast<uint32_t>(neighbors.size()));
    for (VertexId v : neighbors) serde::PutU32(out, v);
  }
  return true;
}

Status StaticAvtTracker::RestoreCheckpointState(const std::string& blob) {
  serde::Reader reader(blob);
  uint64_t t = 0;
  uint32_t n = 0;
  if (!reader.GetU64(&t) || !reader.GetU32(&n)) {
    return Status::Corruption("truncated tracker state blob");
  }
  std::vector<std::vector<VertexId>> adjacency(n);
  for (uint32_t u = 0; u < n; ++u) {
    uint32_t degree = 0;
    if (!reader.GetU32(&degree) || reader.Remaining() < 4ull * degree) {
      return Status::Corruption("truncated tracker state blob");
    }
    adjacency[u].reserve(degree);
    for (uint32_t i = 0; i < degree; ++i) {
      uint32_t v = 0;
      if (!reader.GetU32(&v)) {
        return Status::Corruption("truncated tracker state blob");
      }
      adjacency[u].push_back(v);
    }
  }
  if (!reader.Exhausted()) {
    return Status::Corruption("trailing bytes in tracker state blob");
  }
  StatusOr<Graph> graph = Graph::FromAdjacency(std::move(adjacency));
  if (!graph.ok()) return graph.status();
  graph_ = std::move(graph).value();
  t_ = static_cast<size_t>(t);
  return Status::Ok();
}

std::unique_ptr<AvtTracker> MakeTracker(AvtAlgorithm algorithm, uint32_t k,
                                        uint32_t l, size_t batch_size) {
  switch (algorithm) {
    case AvtAlgorithm::kGreedy:
      return std::make_unique<StaticAvtTracker>(
          std::make_unique<GreedySolver>(), k, l);
    case AvtAlgorithm::kOlak:
      return std::make_unique<StaticAvtTracker>(
          std::make_unique<OlakSolver>(), k, l);
    case AvtAlgorithm::kRcm:
      return std::make_unique<StaticAvtTracker>(std::make_unique<RcmSolver>(),
                                                k, l);
    case AvtAlgorithm::kBruteForce:
      return std::make_unique<StaticAvtTracker>(
          std::make_unique<BruteForceSolver>(), k, l);
    case AvtAlgorithm::kIncAvt: {
      IncAvtOptions options;
      options.batch_size = batch_size;
      return std::make_unique<IncAvtTracker>(k, l, IncAvtMode::kRestricted,
                                             options);
    }
  }
  return nullptr;
}

AvtRunResult RunAvt(const SnapshotSequence& sequence, AvtAlgorithm algorithm,
                    uint32_t k, uint32_t l, size_t batch_size) {
  std::unique_ptr<AvtTracker> tracker =
      MakeTracker(algorithm, k, l, batch_size);
  AVT_CHECK(tracker != nullptr);
  // Every run — bench, CLI, test — rides the streaming engine; the
  // sequence adapter re-emits deltas verbatim, so this is bit-identical
  // to the retired materialized ForEachSnapshot replay.
  AvtEngine engine(std::move(tracker),
                   std::make_unique<SequenceSource>(&sequence));
  Status status = engine.Drain();
  AVT_CHECK_MSG(status.ok(), status.ToString().c_str());
  AvtRunResult run = engine.TakeResult();
  run.algorithm = algorithm;
  run.k = k;
  run.l = l;
  return run;
}

}  // namespace avt
