#include "trace.h"

#include <cinttypes>
#include <cstdio>

namespace avt::perfbench {

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int32_t Tracer::Begin(const char* name) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const auto id = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, 0, 0, parent, txn_});
  open_.push_back(id);
  // Read the clock last so the bookkeeping above is not inside the span.
  spans_.back().start_ns = Now();
  return id;
}

void Tracer::End(int32_t id) {
  const int64_t now = Now();
  spans_[static_cast<size_t>(id)].end_ns = now;
  AVT_CHECK_MSG(!open_.empty() && open_.back() == id,
                "spans must close innermost first");
  open_.pop_back();
}

double Tracer::Millis(int32_t id) const {
  const Span& span = spans_[static_cast<size_t>(id)];
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
}

std::map<std::string, Tracer::Totals> Tracer::Aggregate(
    uint64_t first_txn, uint64_t last_txn) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.txn < first_txn || span.txn > last_txn) continue;
    const int64_t duration = span.end_ns - span.start_ns;
    Totals& t = totals[span.name];
    t.total_ms += static_cast<double>(duration) * 1e-6;
    t.self_ms += static_cast<double>(duration - child_ns[i]) * 1e-6;
    ++t.count;
  }
  return totals;
}

Status Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write trace " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"txn\": %" PRIu64
                 ", \"parent\": %d, \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 "}\n",
                 i, s.name, s.txn, s.parent, s.start_ns, s.end_ns);
  }
  if (std::fclose(f) != 0) return Status::IoError("cannot write trace " + path);
  return Status::Ok();
}

StatusOr<bool> TracedSource::NextDelta(EdgeDelta* delta) {
  StatusOr<bool> more = false;
  {
    ScopedSpan span(tracer_, "graph.pull");
    more = inner_->NextDelta(delta);
  }
  if (more.ok() && more.value()) edges_pulled_ += delta->Size();
  return more;
}

AvtSnapshotResult TracedTracker::ProcessFirst(const Graph& g0) {
  ScopedSpan span(tracer_, "inc_avt.first");
  return inner_->ProcessFirst(g0);
}

AvtSnapshotResult TracedTracker::ProcessDelta(const EdgeDelta& delta) {
  ScopedSpan span(tracer_, "inc_avt.delta");
  return inner_->ProcessDelta(delta);
}

}  // namespace avt::perfbench
