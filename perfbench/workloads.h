// Workload table and seeded input generation for the AVT benchmark.
//
// Every workload is a binary edge log (.avtb, graph/edge_log.h) written
// once per (workload, seed) and then replayed through MmapEdgeLogSource.
// Generation is never timed. Next to the log the generator writes a
// meta file: one JSON line with the input shape, then one hex edge-set
// hash per frame, so a run can prove that the graph it replayed is the
// graph the generator built (see EdgeSetHash).

#ifndef AVT_PERFBENCH_WORKLOADS_H_
#define AVT_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace avt::perfbench {

enum class InputModel {
  kChungLuChurn,    // Chung-Lu power law + the paper's random churn
  kErdosRenyiChurn, // G(n, m) + the paper's random churn
  kActivityWindow,  // power-law activity events, sliding window
};

struct Workload {
  const char* name;
  InputModel model;
  VertexId n;
  double avg_degree;        // graph models
  double alpha;             // power-law exponent (Chung-Lu, activity)
  uint32_t k;
  uint32_t l;
  uint32_t threads;
  uint32_t min_churn;       // churn models: edges removed and added
  uint32_t max_churn;
  uint32_t deltas;          // frames after G_0
  uint64_t events;          // window model: events over `ticks`
  uint32_t ticks;
  uint32_t window_ticks;    // window width
  uint32_t max_offset;      // window model: latest start past the first window
  size_t checkpoint_every;  // 0 = durability off
  size_t audit_every;       // 0 = audits off
  uint32_t setups;          // set-ups per untraced run (median = setup_s)
  uint32_t prefix;          // deltas every run replays; digest covers them
  bool adversarial;         // exempt from the non-degeneracy guard
};

/// nullptr when `name` is not a workload.
const Workload* FindWorkload(const std::string& name);

/// Order-independent hash of an edge set: XOR of a mixed 64-bit key per
/// edge, so it can be updated per inserted or deleted edge in O(1).
uint64_t EdgeKeyHash(VertexId u, VertexId v);
uint64_t EdgeSetHash(const Graph& graph);

/// Writes the workload's .avtb log and meta file for `seed`.
Status GenerateInput(const Workload& workload, uint64_t seed,
                     const std::string& log_path,
                     const std::string& meta_path);

/// Per-frame edge-set hashes from a meta file (frame 0 = G_0).
StatusOr<std::vector<uint64_t>> ReadFrameHashes(const std::string& meta_path);

}  // namespace avt::perfbench

#endif  // AVT_PERFBENCH_WORKLOADS_H_
