// Span tracing for the traced benchmark run, recorded entirely from the
// benchmark's own files: forwarding decorators around the public
// DeltaSource and AvtTracker interfaces, plus spans main.cc opens
// around AvtEngine::Step and the standalone layer calls. Nothing inside
// src/ is instrumented.
//
// A span is (name, start, end, parent, transaction id). Spans are kept
// in memory and written as JSON lines when the run ends. A layer's self
// time is its span's duration minus the durations of its child spans.

#ifndef AVT_PERFBENCH_TRACE_H_
#define AVT_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/inc_avt.h"
#include "graph/delta_source.h"

namespace avt::perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;  // string literal
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;    // index into spans(), -1 for a root span
    uint64_t txn;      // 0 = set-up (G_0), t = the t-th delta transaction
  };

  /// Opens a span as a child of the innermost open span.
  int32_t Begin(const char* name);
  void End(int32_t id);

  void set_txn(uint64_t txn) { txn_ = txn; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of span `id` in milliseconds.
  double Millis(int32_t id) const;

  struct Totals {
    double total_ms = 0;
    double self_ms = 0;
    uint64_t count = 0;
  };
  /// Per-name totals over spans whose txn lies in [first_txn, last_txn].
  std::map<std::string, Totals> Aggregate(uint64_t first_txn,
                                          uint64_t last_txn) const;

  Status WriteJsonl(const std::string& path) const;

 private:
  int64_t Now() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t txn_ = 0;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// DeltaSource decorator: one "graph.pull" span per NextDelta, plus the
/// count of edges pulled.
class TracedSource : public DeltaSource {
 public:
  TracedSource(std::unique_ptr<DeltaSource> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  const Graph& InitialGraph() const override { return inner_->InitialGraph(); }
  StatusOr<bool> NextDelta(EdgeDelta* delta) override;
  Stats SourceStats() const override { return inner_->SourceStats(); }
  std::string name() const override { return inner_->name(); }

  uint64_t edges_pulled() const { return edges_pulled_; }

 private:
  std::unique_ptr<DeltaSource> inner_;
  Tracer* tracer_;
  uint64_t edges_pulled_ = 0;
};

/// AvtTracker decorator around IncAVT: "inc_avt.first" and
/// "inc_avt.delta" spans around the forwarded calls.
class TracedTracker : public AvtTracker {
 public:
  TracedTracker(std::unique_ptr<IncAvtTracker> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  AvtSnapshotResult ProcessFirst(const Graph& g0) override;
  AvtSnapshotResult ProcessDelta(const EdgeDelta& delta) override;
  void EnsureVertices(VertexId count) override {
    inner_->EnsureVertices(count);
  }
  bool SaveCheckpointState(std::string* out) const override {
    return inner_->SaveCheckpointState(out);
  }
  Status RestoreCheckpointState(const std::string& blob) override {
    return inner_->RestoreCheckpointState(blob);
  }
  size_t PreferredBatchSize() const override {
    return inner_->PreferredBatchSize();
  }
  TrackerAuditView AuditView() const override { return inner_->AuditView(); }
  bool InjectAuditFaultForDrill() override {
    return inner_->InjectAuditFaultForDrill();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<IncAvtTracker> inner_;
  Tracer* tracer_;
};

}  // namespace avt::perfbench

#endif  // AVT_PERFBENCH_TRACE_H_
