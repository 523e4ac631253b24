// Delta-maintained CSR: the bandwidth-bound scan path under edge churn.
//
// CsrView (csr.h) gives the scan-heavy phases contiguous neighbor spans,
// but it is frozen: one mutation of the source graph and the snapshot is
// stale, which is why the incremental tracker historically fell back to
// the pointer-chasing dynamic adjacency. DynamicCsr closes that gap: a
// packed adjacency whose per-vertex slabs carry slack slots so the
// maintainer can patch it in place on every InsertEdge / RemoveEdge
// instead of rebuilding O(n + m) state per delta.
//
// Layout: one `targets_` array holding a slab per vertex at
// [offsets_[v], offsets_[v] + capacity_[v]), of which the first
// degree_[v] entries are live. Inserts append into the slack; a full
// slab is relocated to a fresh, geometrically larger slab at the end of
// the array (the old slab becomes garbage), and when garbage exceeds
// the live payload the whole array is compacted back to packed slabs
// with fresh slack — classic slack-slotted storage, amortized O(1)
// moved entries per update.
//
// ORDER CONTRACT (load-bearing): within each slab the neighbor order is
// exactly Graph's — append on insert, swap-with-back on delete — and
// relocation/compaction copy slabs verbatim. Every snapshot of a
// DynamicCsr mirroring a Graph therefore iterates neighbors in the
// identical order, so the decomposition peel order, K-order tags, and
// all lazy/eager bit-identical pins hold whether an algorithm scans the
// graph, a CsrView, or this structure (see csr.h for why that matters).
// tests/dynamic_csr_test.cc and the differential fuzz soak pin the
// equivalence after every mutation.
//
// DynamicCsr exposes the same read surface as Graph and CsrView
// (NumVertices / Degree / Neighbors returning a contiguous span), which
// is the adjacency-view concept every templated scan in the repo
// (FollowerOracle cascades, KOrder builds, decomposition) is written
// against. Readers hold no pointers into `targets_` across mutations:
// spans are fetched per call and a patch may reallocate.

#ifndef AVT_GRAPH_DYNAMIC_CSR_H_
#define AVT_GRAPH_DYNAMIC_CSR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace avt {

/// Mutable slack-slotted CSR mirror of a Graph's adjacency.
class DynamicCsr {
 public:
  DynamicCsr() = default;

  /// Snapshots `graph` into packed slabs with fresh slack. Neighbor
  /// order per vertex is copied verbatim.
  void Rebuild(const Graph& graph);

  /// Mirrors Graph::EnsureVertex: appends isolated vertices (empty
  /// zero-capacity slabs — the first Append relocates to a real slab)
  /// until the universe holds `count` ids. Streaming sources grow the
  /// maintained graph mid-stream and the mirror must follow in lockstep.
  void EnsureVertices(VertexId count) {
    if (count > NumVertices()) slabs_.resize(count, Slab{});
  }

  /// Mirrors Graph::AddEdge AFTER the graph accepted it (the caller
  /// guarantees u != v and the edge was absent): appends v to u's slab
  /// and u to v's slab, exactly like the dynamic adjacency's push_back.
  void AddEdge(VertexId u, VertexId v);

  /// Mirrors Graph::RemoveEdge AFTER the graph accepted it (the caller
  /// guarantees the edge was present): in each endpoint's slab the
  /// removed entry is overwritten by the last live entry and the degree
  /// shrinks — the same swap-with-back Graph performs, preserving the
  /// order equivalence.
  void RemoveEdge(VertexId u, VertexId v);

  VertexId NumVertices() const {
    return static_cast<VertexId>(slabs_.size());
  }
  uint64_t NumEdges() const { return live_ / 2; }

  uint32_t Degree(VertexId u) const {
    AVT_DCHECK(u < NumVertices());
    return slabs_[u].degree;
  }

  std::span<const VertexId> Neighbors(VertexId u) const {
    AVT_DCHECK(u < NumVertices());
    const Slab& slab = slabs_[u];
    return {targets_.data() + slab.offset, slab.degree};
  }

  /// Slab capacity of u (live + slack slots) — instrumentation/tests.
  uint32_t CapacityOf(VertexId u) const { return slabs_[u].capacity; }

  /// Heap bytes held by the descriptors and the slab storage.
  size_t MemoryFootprint() const {
    return slabs_.capacity() * sizeof(Slab) +
           targets_.capacity() * sizeof(VertexId);
  }

  /// Garbage entries currently stranded by relocations.
  uint64_t DeadSlots() const { return dead_; }

  /// Lifetime counters: slab relocations (spills) and whole-array
  /// compactions since the last Rebuild.
  uint64_t relocations() const { return relocations_; }
  uint64_t compactions() const { return compactions_; }

 private:
  /// Per-vertex slab descriptor. Exactly 16 bytes so every descriptor
  /// read is one cache line (the scan hot path loads slabs_[u] once per
  /// visited vertex; splitting offset/degree/capacity across parallel
  /// arrays would triple the metadata misses).
  struct Slab {
    uint64_t offset = 0;    // slab start in targets_
    uint32_t degree = 0;    // live entries
    uint32_t capacity = 0;  // slab size (live + slack)
  };
  static_assert(sizeof(Slab) == 16, "keep the descriptor one load wide");

  /// Appends `v` to u's slab, relocating to a larger slab if full.
  void Append(VertexId u, VertexId v);
  /// Swap-with-back removal of `v` from u's slab.
  void EraseOne(VertexId u, VertexId v);
  /// Moves u's slab to a fresh slab of at least `min_capacity` at the
  /// end of `targets_`; the old slab becomes garbage.
  void Relocate(VertexId u, uint32_t min_capacity);
  /// Rewrites `targets_` as packed slabs with fresh slack when garbage
  /// dominates the live payload.
  void MaybeCompact();
  void Compact();

  /// Slack reserved beyond the current degree at (re)build/compaction:
  /// proportional so hubs absorb bursts, floored so low-degree vertices
  /// survive a couple of inserts without relocating.
  static uint32_t SlackFor(uint32_t degree) { return degree / 8 + 2; }

  std::vector<Slab> slabs_;        // one descriptor per vertex
  std::vector<VertexId> targets_;  // slabs + stranded garbage
  uint64_t live_ = 0;              // sum of degrees == 2m
  uint64_t dead_ = 0;              // garbage entries in targets_
  uint64_t relocations_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace avt

#endif  // AVT_GRAPH_DYNAMIC_CSR_H_
