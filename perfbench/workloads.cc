#include "workloads.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <unordered_map>

#include "gen/models.h"
#include "gen/temporal.h"
#include "graph/delta.h"
#include "graph/edge_log.h"
#include "util/random.h"

namespace avt::perfbench {
namespace {

// Input sizes and cadences. Reasons for each workload are in README.md.
const Workload kWorkloads[] = {
    {.name = "churn-300k",
     .model = InputModel::kChungLuChurn,
     .n = 300'000,
     .avg_degree = 10.0,
     .alpha = 2.2,
     .k = 5,
     .l = 5,
     .threads = 1,
     .min_churn = 100,
     .max_churn = 250,
     .deltas = 1500,
     .events = 0,
     .ticks = 0,
     .window_ticks = 0,
     .max_offset = 0,
     .checkpoint_every = 0,
     .audit_every = 0,
     .setups = 5,
     .prefix = 100,
     .adversarial = false},
    {.name = "window-200k-durable",
     .model = InputModel::kActivityWindow,
     .n = 200'000,
     .avg_degree = 0.0,
     .alpha = 2.0,
     .k = 5,
     .l = 5,
     .threads = 1,
     .min_churn = 0,
     .max_churn = 0,
     .deltas = 700,
     .events = 4'000'000,
     .ticks = 1000,
     .window_ticks = 200,
     .max_offset = 100,
     .checkpoint_every = 10,
     .audit_every = 25,
     .setups = 5,
     .prefix = 150,
     .adversarial = false},
    {.name = "cold-1m",
     .model = InputModel::kChungLuChurn,
     .n = 1'000'000,
     .avg_degree = 10.0,
     .alpha = 2.2,
     .k = 5,
     .l = 5,
     .threads = 2,
     .min_churn = 100,
     .max_churn = 250,
     .deltas = 150,
     .events = 0,
     .ticks = 0,
     .window_ticks = 0,
     .max_offset = 0,
     .checkpoint_every = 0,
     .audit_every = 0,
     .setups = 3,
     .prefix = 30,
     .adversarial = false},
    {.name = "er-adversarial",
     .model = InputModel::kErdosRenyiChurn,
     .n = 100'000,
     .avg_degree = 3.0,
     .alpha = 0.0,
     .k = 3,
     .l = 3,
     .threads = 1,
     .min_churn = 100,
     .max_churn = 250,
     .deltas = 100,
     .events = 0,
     .ticks = 0,
     .window_ticks = 0,
     .max_offset = 0,
     .checkpoint_every = 0,
     .audit_every = 0,
     .setups = 3,
     .prefix = 10,
     .adversarial = true},
};

// Frame statistics accumulated while writing a log.
struct LogShape {
  uint64_t deltas = 0;
  uint64_t insertions = 0;
  uint64_t deletions = 0;
  std::vector<uint64_t> hashes;  // edge-set hash after every frame
};

void FoldDelta(const EdgeDelta& delta, uint64_t* hash, LogShape* shape) {
  for (const Edge& e : delta.insertions) *hash ^= EdgeKeyHash(e.u, e.v);
  for (const Edge& e : delta.deletions) *hash ^= EdgeKeyHash(e.u, e.v);
  shape->insertions += delta.insertions.size();
  shape->deletions += delta.deletions.size();
  ++shape->deltas;
  shape->hashes.push_back(*hash);
}

// The paper's churn protocol (Section 6.1): per step remove a uniform
// sample of current edges, then add uniform absent pairs, each count
// drawn from [min_churn, max_churn]. Edges live in a swap-remove vector
// so a step costs O(churn), not O(m) like a per-step CollectEdges.
Status WriteChurnFrames(Graph graph, const Workload& w, Rng& rng,
                        EdgeLogWriter& writer, LogShape* shape) {
  std::vector<Edge> edges = graph.CollectEdges();
  uint64_t hash = EdgeSetHash(graph);
  shape->hashes.push_back(hash);
  const VertexId n = graph.NumVertices();
  EdgeDelta delta;
  for (uint32_t step = 0; step < w.deltas; ++step) {
    delta.insertions.clear();
    delta.deletions.clear();
    const auto removals =
        static_cast<uint32_t>(rng.UniformInt(w.min_churn, w.max_churn));
    const auto additions =
        static_cast<uint32_t>(rng.UniformInt(w.min_churn, w.max_churn));
    for (uint32_t i = 0; i < removals && !edges.empty(); ++i) {
      const size_t index = static_cast<size_t>(rng.Uniform(edges.size()));
      const Edge e = edges[index];
      edges[index] = edges.back();
      edges.pop_back();
      graph.RemoveEdge(e.u, e.v);
      delta.deletions.push_back(e);
    }
    auto just_deleted = [&delta](const Edge& probe) {
      for (const Edge& e : delta.deletions) {
        if (e == probe) return true;
      }
      return false;
    };
    uint32_t added = 0;
    for (uint64_t attempt = 0; added < additions && attempt < 100ull * additions;
         ++attempt) {
      const auto u = static_cast<VertexId>(rng.Uniform(n));
      const auto v = static_cast<VertexId>(rng.Uniform(n));
      if (u == v || just_deleted(Edge(u, v))) continue;
      if (!graph.AddEdge(u, v)) continue;
      edges.emplace_back(u, v);
      delta.insertions.emplace_back(u, v);
      ++added;
    }
    delta.Canonicalize();
    AVT_RETURN_IF_ERROR(writer.Append(delta));
    FoldDelta(delta, &hash, shape);
  }
  return Status::Ok();
}

// Power-law activity events over `ticks` periods, windowed with width
// `window_ticks`: G_0 is a full window ending at tick window_ticks - 1 +
// offset (offset drawn from the stream seed, at most max_offset) and
// every later frame slides the window by one tick. A pair is present while its latest
// event is inside the window. Events are replayed once in time order
// and expired through a FIFO of (pair, timestamp), so generation costs
// O(events) rather than a full window diff per frame.
Status WriteWindowFrames(const Workload& w, Rng& base_rng, Rng& stream_rng,
                         EdgeLogWriter& writer, Graph* initial,
                         LogShape* shape) {
  TemporalGenOptions options;
  options.num_vertices = w.n;
  options.num_events = w.events;
  options.num_days = w.ticks;
  const TemporalEventLog log = GenPowerLawActivityEvents(options, w.alpha, base_rng);
  std::unordered_map<uint64_t, int64_t> last_seen;  // pairs in the window
  last_seen.reserve(log.events.size() / 4);
  size_t next_event = 0;
  size_t next_expiry = 0;  // events older than this left the window
  EdgeDelta delta;
  // Moves the window to (boundary - window_ticks, boundary].
  auto advance = [&](int64_t boundary) {
    delta.insertions.clear();
    delta.deletions.clear();
    for (; next_event < log.events.size() &&
           log.events[next_event].timestamp <= boundary;
         ++next_event) {
      const TemporalEdge& e = log.events[next_event];
      if (e.u == e.v) continue;
      auto [it, added] = last_seen.try_emplace(PackEdgeKey(e.u, e.v), e.timestamp);
      if (added) {
        delta.insertions.emplace_back(e.u, e.v);
      } else {
        it->second = e.timestamp;
      }
    }
    const int64_t horizon = boundary - static_cast<int64_t>(w.window_ticks);
    for (; next_expiry < next_event &&
           log.events[next_expiry].timestamp <= horizon;
         ++next_expiry) {
      const TemporalEdge& e = log.events[next_expiry];
      if (e.u == e.v) continue;
      auto it = last_seen.find(PackEdgeKey(e.u, e.v));
      if (it != last_seen.end() && it->second == e.timestamp) {
        delta.deletions.emplace_back(e.u, e.v);
        last_seen.erase(it);
      }
    }
    delta.Canonicalize();
  };
  // The seed picks where in the log the replay starts.
  const auto start = static_cast<int64_t>(w.window_ticks - 1 +
                                          stream_rng.Uniform(w.max_offset + 1));
  advance(start);  // frame 0 keeps only the insertions: the window itself
  *initial = Graph(w.n);
  for (const Edge& e : delta.insertions) initial->AddEdge(e.u, e.v);
  AVT_RETURN_IF_ERROR(writer.AppendInitial(*initial));
  uint64_t hash = EdgeSetHash(*initial);
  shape->hashes.push_back(hash);
  for (int64_t boundary = start + 1;
       boundary < start + 1 + static_cast<int64_t>(w.deltas); ++boundary) {
    advance(boundary);
    AVT_RETURN_IF_ERROR(writer.Append(delta));
    FoldDelta(delta, &hash, shape);
  }
  return Status::Ok();
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t EdgeKeyHash(VertexId u, VertexId v) {
  uint64_t state = PackEdgeKey(u, v);
  return SplitMix64(state);
}

uint64_t EdgeSetHash(const Graph& graph) {
  uint64_t hash = 0;
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (VertexId v : graph.Neighbors(u)) {
      if (u < v) hash ^= EdgeKeyHash(u, v);
    }
  }
  return hash;
}

Status GenerateInput(const Workload& w, uint64_t seed,
                     const std::string& log_path,
                     const std::string& meta_path) {
  StatusOr<std::unique_ptr<EdgeLogWriter>> created =
      EdgeLogWriter::Create(log_path);
  if (!created.ok()) return created.status();
  EdgeLogWriter& writer = *created.value();

  // The base graph (or event log) depends on the workload alone; the
  // seed drives the delta stream. Seed-to-seed spread then measures the
  // stream and the machine, not graph-to-graph variation.
  uint64_t name_hash = 14695981039346656037ull;
  for (const char* c = w.name; *c != '\0'; ++c) {
    name_hash = (name_hash ^ static_cast<unsigned char>(*c)) * 1099511628211ull;
  }
  Rng base_rng(name_hash);
  uint64_t seed_state = seed;
  Rng stream_rng(name_hash ^ SplitMix64(seed_state));

  Graph initial;
  LogShape shape;
  if (w.model == InputModel::kActivityWindow) {
    AVT_RETURN_IF_ERROR(WriteWindowFrames(w, base_rng, stream_rng, writer,
                                          &initial, &shape));
  } else {
    initial = w.model == InputModel::kChungLuChurn
                  ? ChungLuPowerLaw(w.n, w.avg_degree, w.alpha,
                                    std::max<uint32_t>(w.n / 20, 16), base_rng)
                  : ErdosRenyi(w.n,
                               static_cast<uint64_t>(w.avg_degree * w.n / 2.0),
                               base_rng);
    AVT_RETURN_IF_ERROR(writer.AppendInitial(initial));
    AVT_RETURN_IF_ERROR(
        WriteChurnFrames(initial, w, stream_rng, writer, &shape));
  }
  AVT_RETURN_IF_ERROR(writer.Finish(w.n));

  std::error_code ec;
  const uintmax_t bytes = std::filesystem::file_size(log_path, ec);
  if (ec) return Status::IoError("cannot stat " + log_path);
  std::FILE* meta = std::fopen(meta_path.c_str(), "w");
  if (meta == nullptr) return Status::IoError("cannot write " + meta_path);
  const double deltas = static_cast<double>(std::max<uint64_t>(shape.deltas, 1));
  std::fprintf(meta,
               "{\"n\": %u, \"m\": %" PRIu64 ", \"deltas\": %" PRIu64
               ", \"mean_insertions\": %.1f, \"mean_deletions\": %.1f, "
               "\"avtb_bytes\": %ju}\n",
               initial.NumVertices(), initial.NumEdges(), shape.deltas,
               static_cast<double>(shape.insertions) / deltas,
               static_cast<double>(shape.deletions) / deltas, bytes);
  for (uint64_t h : shape.hashes) std::fprintf(meta, "%016" PRIx64 "\n", h);
  if (std::fclose(meta) != 0) return Status::IoError("cannot write " + meta_path);
  return Status::Ok();
}

StatusOr<std::vector<uint64_t>> ReadFrameHashes(const std::string& meta_path) {
  std::ifstream in(meta_path);
  if (!in) return Status::IoError("cannot read " + meta_path);
  std::string line;
  std::getline(in, line);  // shape line
  std::vector<uint64_t> hashes;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    char* end = nullptr;
    hashes.push_back(std::strtoull(line.c_str(), &end, 16));
    if (end != line.c_str() + line.size()) {
      return Status::Corruption("bad frame hash in " + meta_path);
    }
  }
  if (hashes.empty()) return Status::Corruption("no frame hashes in " + meta_path);
  return hashes;
}

}  // namespace avt::perfbench
