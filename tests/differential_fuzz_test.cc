// Differential fuzz: IncAvtTracker vs from-scratch recomputation.
//
// A seeded fuzz loop drives the incremental tracker through ~200 random
// EdgeDelta transitions (mixed inserts/removes, varying k/l/batch) and,
// after every transition, recomputes the ground truth from scratch on
// the materialized snapshot — a fresh core decomposition, a fresh
// K-order + follower oracle, and the exact anchored peel — exactly what
// a StaticAVT re-solve would see. Any drift between the maintained
// incremental state and the from-scratch view (core numbers, |C_k|,
// reported follower counts, anchored-core size) is a bug in the
// maintenance or tracking path, regardless of which anchors the
// heuristic picked.
//
// On a mismatch the failing schedule is SHRUNK — whole transitions
// first, then individual edges while the schedule is small — and
// printed, so the minimized repro can be pasted into a regression test.
//
// Scale knob: AVT_FUZZ_TRANSITIONS overrides the per-config transition
// count (the sanitizer tier runs a reduced sweep; see scripts/check.sh).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "anchor/anchored_core.h"
#include "anchor/follower_oracle.h"
#include "core/engine.h"
#include "core/inc_avt.h"
#include "core/run_summary.h"
#include "durability/wal.h"
#include "corelib/decomposition.h"
#include "corelib/korder.h"
#include "gen/models.h"
#include "gen/temporal.h"
#include "graph/delta.h"
#include "graph/delta_source.h"
#include "graph/edge_log.h"
#include "graph/io.h"
#include "util/random.h"

namespace avt {
namespace {

struct FuzzConfig {
  uint32_t n;
  double avg_degree;
  uint32_t k;
  uint32_t l;
  uint32_t max_batch;  // per-side churn bound ("b"): 0..max_batch each
  uint64_t seed;
};

size_t TransitionsPerConfig() {
  if (const char* env = std::getenv("AVT_FUZZ_TRANSITIONS")) {
    int value = std::atoi(env);
    if (value > 0) return static_cast<size_t>(value) / 4 + 1;
  }
  return 50;  // 4 configs x 50 = 200 transitions
}

// One random transition against the current graph: remove up to
// max_batch existing edges, insert up to max_batch absent pairs. The
// delta is applied to `g` so the next transition sees the new state.
EdgeDelta RandomDelta(Graph& g, uint32_t max_batch, Rng& rng) {
  EdgeDelta delta;
  const uint64_t removals = rng.Uniform(max_batch + 1);
  if (removals > 0 && g.NumEdges() > 0) {
    std::vector<Edge> edges = g.CollectEdges();
    for (uint64_t r = 0; r < removals && !edges.empty(); ++r) {
      size_t pick = static_cast<size_t>(rng.Uniform(edges.size()));
      delta.deletions.push_back(edges[pick]);
      edges[pick] = edges.back();
      edges.pop_back();
    }
  }
  const uint64_t insertions = rng.Uniform(max_batch + 1);
  for (uint64_t a = 0; a < insertions; ++a) {
    for (int attempt = 0; attempt < 32; ++attempt) {
      VertexId u = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
      VertexId v = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
      if (u == v || g.HasEdge(u, v)) continue;
      // Inserting an edge just removed in this delta would make the
      // transition order-sensitive; keep the batches disjoint.
      bool clashes = false;
      for (const Edge& e : delta.deletions) clashes |= (e == Edge(u, v));
      for (const Edge& e : delta.insertions) clashes |= (e == Edge(u, v));
      if (clashes) continue;
      delta.insertions.push_back(Edge(u, v));
      break;
    }
  }
  delta.Apply(g);
  return delta;
}

std::string FormatSchedule(const std::vector<EdgeDelta>& schedule) {
  std::ostringstream out;
  for (size_t t = 0; t < schedule.size(); ++t) {
    out << "  t" << (t + 1) << ":";
    for (const Edge& e : schedule[t].insertions) {
      out << " +(" << e.u << "," << e.v << ")";
    }
    for (const Edge& e : schedule[t].deletions) {
      out << " -(" << e.u << "," << e.v << ")";
    }
    out << "\n";
  }
  return out.str();
}

// Replays the schedule through a fresh tracker, cross-checking every
// snapshot against from-scratch recomputation. Returns "" when all
// transitions agree, else a description of the first mismatch.
std::string CheckSchedule(const Graph& g0,
                          const std::vector<EdgeDelta>& schedule,
                          uint32_t k, uint32_t l) {
  IncAvtTracker tracker(k, l);
  tracker.ProcessFirst(g0);
  Graph g = g0;
  for (size_t t = 0; t < schedule.size(); ++t) {
    schedule[t].Apply(g);
    AvtSnapshotResult snap = tracker.ProcessDelta(schedule[t]);
    std::ostringstream why;

    // Maintained core numbers vs a fresh decomposition.
    CoreDecomposition cores = DecomposeCores(g);
    uint32_t kcore_size = 0;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (cores.core[v] >= k) ++kcore_size;
      if (tracker.maintainer().order().CoreOf(v) != cores.core[v]) {
        why << "t=" << (t + 1) << ": maintained core(" << v << ")="
            << tracker.maintainer().order().CoreOf(v)
            << " != from-scratch " << cores.core[v];
        return why.str();
      }
    }
    if (snap.kcore_size != kcore_size) {
      why << "t=" << (t + 1) << ": kcore_size " << snap.kcore_size
          << " != from-scratch " << kcore_size;
      return why.str();
    }

    // Reported followers vs the exact anchored peel of the reported
    // anchors, and vs a fresh K-order + oracle.
    AnchoredCoreResult exact = ComputeAnchoredKCore(g, k, snap.anchors);
    if (snap.num_followers != exact.followers.size()) {
      why << "t=" << (t + 1) << ": num_followers " << snap.num_followers
          << " != exact peel " << exact.followers.size();
      return why.str();
    }
    if (snap.anchored_core_size != exact.members.size()) {
      why << "t=" << (t + 1) << ": anchored_core_size "
          << snap.anchored_core_size << " != exact |C_k(S)| "
          << exact.members.size();
      return why.str();
    }
    KOrder fresh_order;
    fresh_order.Build(g);
    FollowerOracle fresh_oracle(&g, &fresh_order);
    uint32_t fresh_followers = fresh_oracle.CountFollowers(snap.anchors, k);
    if (snap.num_followers != fresh_followers) {
      why << "t=" << (t + 1) << ": num_followers " << snap.num_followers
          << " != fresh-order oracle " << fresh_followers;
      return why.str();
    }
  }
  return "";
}

// Delta-level then edge-level greedy minimization, preserving failure.
std::vector<EdgeDelta> ShrinkSchedule(const Graph& g0,
                                      std::vector<EdgeDelta> schedule,
                                      uint32_t k, uint32_t l) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = schedule.size(); i-- > 0;) {
      std::vector<EdgeDelta> trial = schedule;
      trial.erase(trial.begin() + static_cast<ptrdiff_t>(i));
      if (!CheckSchedule(g0, trial, k, l).empty()) {
        schedule = std::move(trial);
        progress = true;
      }
    }
  }
  if (schedule.size() <= 10) {
    progress = true;
    while (progress) {
      progress = false;
      for (size_t i = 0; i < schedule.size(); ++i) {
        for (int side = 0; side < 2; ++side) {
          std::vector<Edge>& edges = side == 0
                                         ? schedule[i].insertions
                                         : schedule[i].deletions;
          for (size_t e = edges.size(); e-- > 0;) {
            std::vector<EdgeDelta> trial = schedule;
            std::vector<Edge>& trial_edges =
                side == 0 ? trial[i].insertions : trial[i].deletions;
            trial_edges.erase(trial_edges.begin() +
                              static_cast<ptrdiff_t>(e));
            if (!CheckSchedule(g0, trial, k, l).empty()) {
              schedule = std::move(trial);
              progress = true;
            }
          }
        }
      }
    }
  }
  return schedule;
}

TEST(DifferentialFuzz, IncAvtMatchesFromScratchRecomputation) {
  const size_t transitions = TransitionsPerConfig();
  const FuzzConfig configs[] = {
      {150, 6.0, 3, 3, 10, 501},
      {200, 7.0, 4, 5, 25, 502},
      {120, 5.0, 3, 2, 40, 503},
      {180, 8.0, 5, 4, 15, 504},
  };
  for (const FuzzConfig& config : configs) {
    Rng rng(config.seed);
    Graph g0 = ChungLuPowerLaw(config.n, config.avg_degree, 2.2,
                               config.n / 4, rng);
    // Generate the whole schedule up front (against a working copy), so
    // a failure can be replayed and shrunk deterministically from g0.
    Graph working = g0;
    std::vector<EdgeDelta> schedule;
    schedule.reserve(transitions);
    for (size_t t = 0; t < transitions; ++t) {
      schedule.push_back(RandomDelta(working, config.max_batch, rng));
    }

    std::string mismatch = CheckSchedule(g0, schedule, config.k, config.l);
    if (!mismatch.empty()) {
      std::vector<EdgeDelta> minimal =
          ShrinkSchedule(g0, schedule, config.k, config.l);
      std::string minimal_mismatch =
          CheckSchedule(g0, minimal, config.k, config.l);
      ADD_FAILURE() << "differential mismatch (seed " << config.seed
                    << ", k=" << config.k << ", l=" << config.l
                    << ", batch<=" << config.max_batch << "):\n  "
                    << mismatch << "\nshrunk to " << minimal.size()
                    << " transition(s): " << minimal_mismatch << "\n"
                    << FormatSchedule(minimal);
      return;  // one minimized repro is enough output
    }
  }
}

// Acceptance matrix for the streaming refactor: a temporal edge-list
// FILE streamed through AvtEngine (StreamingEdgeFileSource, the
// zero-materialization ingestion path, coalesce-window 1 == no
// decorator) must produce bit-identical anchors and follower counts to
// the materialized WindowSnapshots replay of the SAME file, under both
// {lazy, eager} strategies.
TEST(DifferentialFuzz, StreamedFileReplayMatchesMaterializedMatrix) {
  Rng rng(808);
  TemporalGenOptions options;
  options.num_vertices = 250;
  options.num_events = 15'000;
  options.num_days = 120;
  TemporalEventLog log = GenBurstyMessageEvents(options, 0.2, 4.0, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "avt_fuzz_stream_log.txt")
          .string();
  ASSERT_TRUE(SaveTemporalEdgeList(log, path).ok());
  auto loaded = LoadTemporalEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  const size_t T = 6;
  const uint32_t window = 30;
  SnapshotSequence sequence = WindowSnapshots(loaded.value(), T, window);

  const uint32_t k = 3;
  const uint32_t l = 4;
  for (bool lazy : {true, false}) {
    IncAvtOptions options_inc;
    options_inc.lazy = lazy;
    auto run_config = [&](std::unique_ptr<DeltaSource> source) {
      AvtEngine engine(
          std::make_unique<IncAvtTracker>(
              k, l, IncAvtMode::kRestricted, options_inc),
          std::move(source));
      std::vector<std::pair<std::vector<VertexId>, uint32_t>> track;
      engine.SetObserver([&](const AvtSnapshotResult& snap) {
        track.emplace_back(snap.anchors, snap.num_followers);
      });
      EXPECT_TRUE(engine.Drain().ok());
      return track;
    };
    auto materialized =
        run_config(std::make_unique<SequenceSource>(&sequence));
    auto opened = StreamingEdgeFileSource::Open(path, T, window);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto streamed = run_config(std::move(opened).value());
    EXPECT_EQ(materialized, streamed) << "lazy=" << lazy;
  }
  std::remove(path.c_str());
}

// The binary edge log is a third, on-disk representation of the same
// stream: `convert` transcodes the temporal file once, and
// MmapEdgeLogSource replays the frames with zero parsing. The
// acceptance bar is the strongest one this suite has: anchors and
// follower counts BIT-IDENTICAL across all three representations —
// binlog, text streamer, materialized snapshots — for every
// {lazy, eager} x batch {1, 16} configuration.
TEST(DifferentialFuzz, BinlogReplayMatchesTextAndMaterializedMatrix) {
  Rng rng(909);
  TemporalGenOptions options;
  options.num_vertices = 220;
  options.num_events = 12'000;
  options.num_days = 100;
  TemporalEventLog log = GenBurstyMessageEvents(options, 0.2, 4.0, rng);
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string text_path = (tmp / "avt_fuzz_binlog_src.txt").string();
  const std::string binlog_path = (tmp / "avt_fuzz_binlog.avtb").string();
  ASSERT_TRUE(SaveTemporalEdgeList(log, text_path).ok());
  const size_t T = 6;
  const uint32_t window = 25;
  auto stats = ConvertTemporalToEdgeLog(text_path, T, window, binlog_path);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  auto loaded = LoadTemporalEdgeList(text_path);
  ASSERT_TRUE(loaded.ok());
  SnapshotSequence sequence = WindowSnapshots(loaded.value(), T, window);

  const uint32_t k = 3;
  const uint32_t l = 4;
  for (bool lazy : {true, false}) {
    for (size_t batch : {size_t{1}, size_t{16}}) {
      IncAvtOptions options_inc;
      options_inc.lazy = lazy;
      options_inc.batch_size = batch;
      auto run_config = [&](std::unique_ptr<DeltaSource> source) {
        AvtEngine engine(
            std::make_unique<IncAvtTracker>(
                k, l, IncAvtMode::kRestricted, options_inc),
            std::move(source));
        std::vector<std::pair<std::vector<VertexId>, uint32_t>> track;
        engine.SetObserver([&](const AvtSnapshotResult& snap) {
          track.emplace_back(snap.anchors, snap.num_followers);
        });
        EXPECT_TRUE(engine.Drain().ok());
        return track;
      };
      auto materialized =
          run_config(std::make_unique<SequenceSource>(&sequence));
      auto text_source = StreamingEdgeFileSource::Open(text_path, T, window);
      ASSERT_TRUE(text_source.ok()) << text_source.status().ToString();
      auto streamed = run_config(std::move(text_source).value());
      auto bin_source = MmapEdgeLogSource::Open(binlog_path);
      ASSERT_TRUE(bin_source.ok()) << bin_source.status().ToString();
      auto binlogged = run_config(std::move(bin_source).value());
      const std::string config = "lazy=" + std::to_string(lazy) +
                                 " batch=" + std::to_string(batch);
      EXPECT_EQ(streamed, materialized) << config;
      EXPECT_EQ(binlogged, streamed) << config;
      EXPECT_EQ(binlogged, materialized) << config;
    }
  }
  std::remove(text_path.c_str());
  std::remove(binlog_path.c_str());
}

// Feeds a fixed schedule of deltas to the engine (no snapshot sequence
// needed — batching is an engine/tracker affair).
class ScheduleSource : public DeltaSource {
 public:
  ScheduleSource(const Graph* g0, const std::vector<EdgeDelta>* schedule)
      : g0_(g0), schedule_(schedule) {}
  const Graph& InitialGraph() const override { return *g0_; }
  StatusOr<bool> NextDelta(EdgeDelta* delta) override {
    if (next_ >= schedule_->size()) return false;
    *delta = (*schedule_)[next_++];
    return true;
  }
  std::string name() const override { return "schedule"; }

 private:
  const Graph* g0_;
  const std::vector<EdgeDelta>* schedule_;
  size_t next_ = 0;
};

// Batched delta transactions (IncAvtOptions::batch_size, honored by
// AvtEngine::Step): the merged transaction must be indistinguishable
// from the minimal net delta between the materialized boundary
// snapshots. Concretely, driving the engine with batch B must be
// BIT-IDENTICAL — anchors, followers, maintained coreness — to a
// mirror tracker fed DiffGraphs(G_boundary_prev, G_boundary) one
// transaction at a time (the DeltaBatcher last-op-wins guarantee:
// redundant merged ops are maintenance no-ops), lazy and eager; the
// maintained coreness at every boundary
// must also equal a fresh from-scratch decomposition of the
// materialized boundary graph. batch_size 1 must be VERBATIM per-delta
// delivery: bit-identical to a direct ProcessDelta loop with no engine
// in between. (Anchors at a boundary are NOT required to match the
// per-delta replay's anchors there — the heuristic's seed path differs
// by construction; the invariant is equivalence to the net-delta
// transaction, exactly as CoalescingSource pins it source-side.)
TEST(DifferentialFuzz, BatchedReplayMatchesPerDeltaBoundaries) {
  Rng rng(606);
  Graph g0 = ChungLuPowerLaw(180, 6.0, 2.2, 45, rng);
  const size_t transitions = 24;
  Graph working = g0;
  std::vector<EdgeDelta> schedule;
  std::vector<Graph> states;  // states[t]: graph after transition t
  schedule.reserve(transitions);
  for (size_t t = 0; t < transitions; ++t) {
    schedule.push_back(RandomDelta(working, 20, rng));
    states.push_back(working);
  }

  const uint32_t k = 3;
  const uint32_t l = 4;
  struct BatchTrace {
    std::vector<std::vector<VertexId>> anchors;
    std::vector<uint32_t> followers;
    std::vector<std::vector<uint32_t>> coreness;
  };
  auto run = [&](bool lazy, size_t batch) {
    IncAvtOptions options;
    options.lazy = lazy;
    options.batch_size = batch;
    auto tracker = std::make_unique<IncAvtTracker>(
        k, l, IncAvtMode::kRestricted, options);
    IncAvtTracker* raw = tracker.get();
    AvtEngine engine(std::move(tracker),
                     std::make_unique<ScheduleSource>(&g0, &schedule));
    BatchTrace trace;
    engine.SetObserver([&](const AvtSnapshotResult& snap) {
      trace.anchors.push_back(snap.anchors);
      trace.followers.push_back(snap.num_followers);
      std::vector<uint32_t> cores(g0.NumVertices());
      for (VertexId v = 0; v < g0.NumVertices(); ++v) {
        cores[v] = raw->maintainer().order().CoreOf(v);
      }
      trace.coreness.push_back(std::move(cores));
    });
    EXPECT_TRUE(engine.Drain().ok());
    return trace;
  };

  for (bool lazy : {true, false}) {
    // Per-delta reference (engine, batch 1) vs a direct ProcessDelta
    // loop: batch 1 must be verbatim passthrough, not a merge of one.
    BatchTrace reference = run(lazy, 1);
    ASSERT_EQ(reference.anchors.size(), transitions + 1);
    {
      IncAvtOptions options;
      options.lazy = lazy;
      IncAvtTracker direct(k, l, IncAvtMode::kRestricted, options);
      AvtSnapshotResult snap = direct.ProcessFirst(g0);
      for (size_t t = 0;; ++t) {
        EXPECT_EQ(snap.anchors, reference.anchors[t])
            << "lazy=" << lazy << " t=" << t;
        EXPECT_EQ(snap.num_followers, reference.followers[t]);
        if (t == transitions) break;
        snap = direct.ProcessDelta(schedule[t]);
      }
    }

    for (size_t batch : {3u, 16u}) {
      BatchTrace batched = run(lazy, batch);
      const size_t expected =
          1 + (transitions + batch - 1) / batch;  // G_0 + ceil(T/B)
      ASSERT_EQ(batched.anchors.size(), expected)
          << "lazy=" << lazy << " batch=" << batch;

      // Net-delta mirror: one DiffGraphs transaction per boundary.
      IncAvtOptions mirror_options;
      mirror_options.lazy = lazy;
      IncAvtTracker mirror(k, l, IncAvtMode::kRestricted, mirror_options);
      const Graph* prev = &g0;
      AvtSnapshotResult msnap = mirror.ProcessFirst(g0);
      for (size_t i = 0; i < batched.anchors.size(); ++i) {
        const size_t boundary = std::min(i * batch, transitions);
        if (i > 0) {
          const Graph& cur = states[boundary - 1];
          msnap = mirror.ProcessDelta(DiffGraphs(*prev, cur));
          prev = &cur;
        }
        EXPECT_EQ(batched.anchors[i], msnap.anchors)
            << "lazy=" << lazy << " batch=" << batch
            << " boundary=" << boundary;
        EXPECT_EQ(batched.followers[i], msnap.num_followers)
            << "lazy=" << lazy << " batch=" << batch
            << " boundary=" << boundary;
        std::vector<uint32_t> mirror_cores(g0.NumVertices());
        for (VertexId v = 0; v < g0.NumVertices(); ++v) {
          mirror_cores[v] = mirror.maintainer().order().CoreOf(v);
        }
        EXPECT_EQ(batched.coreness[i], mirror_cores)
            << "lazy=" << lazy << " batch=" << batch
            << " boundary=" << boundary;
        // Maintained coreness at the boundary vs a fresh
        // decomposition of the materialized boundary snapshot.
        if (boundary > 0) {
          CoreDecomposition fresh = DecomposeCores(states[boundary - 1]);
          EXPECT_EQ(batched.coreness[i], fresh.core)
              << "batch=" << batch << " boundary=" << boundary;
        }
      }
    }
  }
}

TEST(DifferentialFuzz, SurvivesEmptyAndDegenerateDeltas) {
  // Edge cases the random loop rarely hits: empty deltas, a delta whose
  // removals disconnect the k-core, and re-inserting what was removed.
  Rng rng(909);
  Graph g0 = ChungLuPowerLaw(100, 6.0, 2.2, 30, rng);
  std::vector<EdgeDelta> schedule;
  schedule.push_back(EdgeDelta{});  // no-op transition
  Graph working = g0;
  EdgeDelta wipe;
  std::vector<Edge> edges = working.CollectEdges();
  for (size_t i = 0; i < edges.size() && i < 120; ++i) {
    wipe.deletions.push_back(edges[i]);
  }
  wipe.Apply(working);
  schedule.push_back(wipe);
  schedule.push_back(wipe.Inverse());  // restore
  EXPECT_EQ(CheckSchedule(g0, schedule, 3, 3), "");
}

// Randomized crash drill over the durability layer: random workload,
// random tracker config, random checkpoint cadence, random kill point —
// and, when only the initial checkpoint exists, a random torn tail cut
// from the WAL. The recovered + drained run must be bit-identical to
// the uninterrupted reference every time (docs/DURABILITY.md). This is
// the fuzz-shaped companion to tests/durability_test.cc's exhaustive
// kill-point matrix: that suite enumerates, this one explores.
TEST(DifferentialFuzz, KillPointRecoveryIsBitIdentical) {
  struct Final {
    size_t processed;
    std::vector<VertexId> anchors;
    uint64_t candidates;
    uint64_t followers;
    double stability;
    size_t changes;
    bool operator==(const Final&) const = default;
  };
  auto capture = [](const AvtEngine& engine) {
    RunSummary summary = engine.Summary();
    return Final{engine.SnapshotsProcessed(),
                 engine.SnapshotsProcessed() ? engine.last().anchors
                                             : std::vector<VertexId>{},
                 summary.total_candidates,
                 summary.total_followers,
                 summary.anchor_stability,
                 summary.anchor_changes};
  };

  Rng rng(7070);
  const size_t kBatches[] = {1, 3, 16};
  const size_t rounds = 12;
  for (size_t round = 0; round < rounds; ++round) {
    Rng gen_rng(2000 + round);
    Graph g0 = ChungLuPowerLaw(
        80 + static_cast<VertexId>(rng.Uniform(80)), 6.0, 2.2, 30,
        gen_rng);
    const size_t transitions = 5 + rng.Uniform(6);
    Graph working = g0;
    std::vector<EdgeDelta> schedule;
    for (size_t t = 0; t < transitions; ++t) {
      schedule.push_back(RandomDelta(working, 15, gen_rng));
    }

    IncAvtOptions options;
    options.lazy = rng.Uniform(2) == 0;
    options.batch_size = kBatches[rng.Uniform(3)];
    const uint32_t k = 3, l = 3;
    auto make_tracker = [&options, k, l]() {
      return std::make_unique<IncAvtTracker>(k, l, IncAvtMode::kRestricted,
                                             options);
    };
    auto describe = [&](size_t kill) {
      std::ostringstream out;
      out << "round=" << round << " lazy=" << options.lazy
          << " batch=" << options.batch_size << " kill=" << kill;
      return out.str();
    };

    AvtEngine reference(make_tracker(),
                        std::make_unique<ScheduleSource>(&g0, &schedule));
    ASSERT_TRUE(reference.Drain().ok()) << describe(0);
    const Final expected = capture(reference);
    const size_t total_steps = reference.SnapshotsProcessed();

    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("avt_fuzz_recover_" + std::to_string(round)))
            .string();
    std::filesystem::remove_all(dir);
    DurabilityOptions durability;
    durability.dir = dir;
    durability.checkpoint_every = rng.Uniform(3);  // 0 = initial only
    const size_t kill = 1 + rng.Uniform(total_steps);
    {
      AvtEngine victim(make_tracker(),
                       std::make_unique<ScheduleSource>(&g0, &schedule));
      ASSERT_TRUE(victim.EnableDurability(durability).ok())
          << describe(kill);
      for (size_t step = 0; step < kill; ++step) {
        ASSERT_TRUE(victim.Step().value()) << describe(kill);
      }
    }
    // With no cadenced checkpoints claiming records, a torn WAL tail is
    // crash-normal — cut a few bytes to simulate an in-flight write.
    if (durability.checkpoint_every == 0 && rng.Uniform(2) == 0) {
      const std::string wal_path = dir + "/" + DeltaWal::kFileName;
      const auto size = std::filesystem::file_size(wal_path);
      std::filesystem::resize_file(wal_path,
                                   size - std::min<uintmax_t>(size, 1 + rng.Uniform(16)));
    }

    auto recovered = AvtEngine::Recover(
        make_tracker(), std::make_unique<ScheduleSource>(&g0, &schedule),
        EngineOptions{}, durability);
    ASSERT_TRUE(recovered.ok())
        << describe(kill) << ": " << recovered.status().ToString();
    ASSERT_TRUE(recovered.value()->Drain().ok()) << describe(kill);
    EXPECT_EQ(capture(*recovered.value()).processed, expected.processed)
        << describe(kill);
    EXPECT_TRUE(capture(*recovered.value()) == expected) << describe(kill);
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace avt
