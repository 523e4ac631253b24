#include "corelib/korder.h"

namespace avt {

void KOrder::Build(const Graph& graph) {
  BuildFrom(graph, DecomposeCores(graph));
}

void KOrder::BuildFrom(const Graph& graph, const CoreDecomposition& cores) {
  const VertexId n = graph.NumVertices();
  AVT_CHECK(cores.core.size() == n);
  hot_.assign(n, Hot{});
  links_.assign(n, Link{});
  levels_.clear();
  relabel_count_ = 0;
  EnsureLevel(cores.max_core);

  AVT_CHECK_MSG(cores.peel_order.size() == n,
                "pinned decompositions cannot seed a KOrder");
  for (VertexId v : cores.peel_order) {
    hot_[v].level = cores.core[v];
    PushBack(cores.core[v], v);
  }
  for (VertexId v = 0; v < n; ++v) {
    hot_[v].deg_plus = ComputeDegPlus(graph, v);
  }
}

uint32_t KOrder::ComputeDegPlus(const Graph& graph, VertexId v) const {
  uint32_t count = 0;
  for (VertexId w : graph.Neighbors(v)) {
    if (Precedes(v, w)) ++count;
  }
  return count;
}

void KOrder::Detach(VertexId v) {
  Link& link = links_[v];
  Level& level = levels_[hot_[v].level];
  if (link.prev != kNoVertex) {
    links_[link.prev].next = link.next;
  } else {
    level.head = link.next;
  }
  if (link.next != kNoVertex) {
    links_[link.next].prev = link.prev;
  } else {
    level.tail = link.prev;
  }
  link.prev = kNoVertex;
  link.next = kNoVertex;
  --level.size;
}

void KOrder::PushFront(uint32_t level_index, VertexId v) {
  EnsureLevel(level_index);
  Level& level = levels_[level_index];
  Hot& hot = hot_[v];
  Link& link = links_[v];
  hot.level = level_index;
  link.prev = kNoVertex;
  link.next = level.head;
  if (level.head != kNoVertex) {
    uint64_t head_tag = hot_[level.head].tag;
    if (head_tag < kTagGap) {
      // Re-attach state before relabeling; simplest correct approach:
      // temporarily push with tag 0, relabel the whole level.
      links_[level.head].prev = v;
      level.head = v;
      ++level.size;
      hot.tag = 0;
      RelabelLevel(level_index);
      return;
    }
    hot.tag = head_tag - kTagGap;
    links_[level.head].prev = v;
  } else {
    hot.tag = kTagOrigin;
    level.tail = v;
  }
  level.head = v;
  ++level.size;
}

void KOrder::PushBack(uint32_t level_index, VertexId v) {
  EnsureLevel(level_index);
  Level& level = levels_[level_index];
  Hot& hot = hot_[v];
  Link& link = links_[v];
  hot.level = level_index;
  link.next = kNoVertex;
  link.prev = level.tail;
  if (level.tail != kNoVertex) {
    uint64_t tail_tag = hot_[level.tail].tag;
    if (tail_tag > ~uint64_t{0} - kTagGap) {
      links_[level.tail].next = v;
      level.tail = v;
      ++level.size;
      hot.tag = ~uint64_t{0};
      RelabelLevel(level_index);
      return;
    }
    hot.tag = tail_tag + kTagGap;
    links_[level.tail].next = v;
  } else {
    hot.tag = kTagOrigin;
    level.head = v;
  }
  level.tail = v;
  ++level.size;
}

void KOrder::RelabelLevel(uint32_t level_index) {
  ++relabel_count_;
  uint64_t tag = kTagOrigin;
  for (VertexId v = levels_[level_index].head; v != kNoVertex;
       v = links_[v].next) {
    hot_[v].tag = tag;
    tag += kTagGap;
  }
}

void KOrder::MoveToLevelFront(VertexId v, uint32_t level) {
  Detach(v);
  PushFront(level, v);
}

void KOrder::MoveToLevelBack(VertexId v, uint32_t level) {
  Detach(v);
  PushBack(level, v);
}

uint32_t KOrder::RecomputeDegPlus(const Graph& graph, VertexId v) {
  hot_[v].deg_plus = ComputeDegPlus(graph, v);
  return hot_[v].deg_plus;
}

std::vector<VertexId> KOrder::LevelVertices(uint32_t level) const {
  std::vector<VertexId> out;
  if (level >= levels_.size()) return out;
  out.reserve(levels_[level].size);
  for (VertexId v = levels_[level].head; v != kNoVertex;
       v = links_[v].next) {
    out.push_back(v);
  }
  return out;
}

std::vector<VertexId> KOrder::FullOrder() const {
  std::vector<VertexId> out;
  out.reserve(hot_.size());
  for (uint32_t level = 0; level < levels_.size(); ++level) {
    for (VertexId v = levels_[level].head; v != kNoVertex;
         v = links_[v].next) {
      out.push_back(v);
    }
  }
  return out;
}

}  // namespace avt
