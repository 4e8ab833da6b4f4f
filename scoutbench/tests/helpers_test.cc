// Tests of the benchmark's own helpers: the nearest-rank percentile with
// its ten-beyond rule, the choice of undisturbed chunks, span self time,
// and that the tracing decorators leave every simulated result and
// result hash bit-identical.
//
//   python3 scoutbench/run.py --self-test

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "decorators.h"
#include "host.h"
#include "engine/experiment.h"
#include "engine/multi_client_engine.h"
#include "engine/query_executor.h"
#include "index/rtree.h"
#include "percentile.h"
#include "prefetch/scout_prefetcher.h"
#include "storage/file_page_store.h"
#include "trace.h"
#include "workload/generators.h"
#include "workload/query_gen.h"

namespace scoutbench {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

TEST(PercentileTest, NearestRank) {
  const Percentile p50 = TailPercentile(Range(100), 50);
  EXPECT_EQ(p50.pct, 50);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.samples, 100u);
  // ceil(0.5 * 5) = rank 3.
  std::vector<double> sorted = {1, 2, 3, 4, 5};
  EXPECT_EQ(NearestRank(sorted, 50), 3);
  EXPECT_EQ(NearestRank(sorted, 0), 1);
  EXPECT_EQ(NearestRank(sorted, 100), 5);
}

TEST(PercentileTest, P99NeedsTenSamplesBeyondIt) {
  // 1000 samples: rank 990, ten beyond — p99 stands.
  const Percentile full = TailPercentile(Range(1000), 99);
  EXPECT_EQ(full.pct, 99);
  EXPECT_EQ(full.value, 990);
  // 999 samples: rank 990, nine beyond — falls back to p98 (rank 980).
  const Percentile short_by_one = TailPercentile(Range(999), 99);
  EXPECT_EQ(short_by_one.pct, 98);
  EXPECT_EQ(short_by_one.value, 980);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(SamplesBeyond(999, 98), 19u);
  // 100 samples: the highest percentile with ten beyond is p90.
  EXPECT_EQ(TailPercentile(Range(100), 99).pct, 90);
  EXPECT_EQ(PercentileName("wall_response", 90, "us"),
            "wall_response_p90_us");
}

TEST(PercentileTest, TooFewSamplesReportNothing) {
  EXPECT_FALSE(TailPercentile(Range(10), 99).reported());
  EXPECT_FALSE(TailPercentile({}, 50).reported());
  // Eleven samples: rank 1 of p9 leaves exactly ten beyond.
  const Percentile p = TailPercentile(Range(11), 99);
  EXPECT_EQ(p.pct, 9);
  EXPECT_EQ(p.value, 1);
}

TEST(PercentileTest, MedianOfWindowsIgnoresANoisyWindow) {
  // Three windows of 1000; the middle one is ten times slower.
  std::vector<double> v;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 1000; ++i) v.push_back(w == 1 ? 10.0 * i : i);
  }
  const Percentile p99 = MedianOfWindows(v, 1000, 99);
  EXPECT_EQ(p99.pct, 99);
  EXPECT_EQ(p99.value, 990);
  EXPECT_EQ(p99.samples, 3000u);
  // Over all 3000 samples the slow window owns the tail.
  EXPECT_EQ(TailPercentile(v, 99).value, 9700);
  // A remainder joins the last window: 1000 x 1, then 1000 x 2 and 500 x
  // 3 make two windows with medians 1 and 2, not three windows.
  std::vector<double> w(1000, 1.0);
  w.insert(w.end(), 1000, 2.0);
  w.insert(w.end(), 500, 3.0);
  EXPECT_EQ(MedianOfWindows(w, 1000, 50).value, 1.5);
  // Fewer samples than two windows: the plain nearest-rank percentile.
  EXPECT_EQ(MedianOfWindows(Range(1500), 1000, 99).value, 1485);
}

TEST(PercentileTest, Median) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(LeastStolenTest, KeepsCleanChunksOrTheLeastStolenQuarter) {
  // Chunks 1 and 3 are disturbed; the clean ones are enough.
  EXPECT_EQ(LeastStolen({0, 9, 1, 5}, {10, 10, 10, 10}, 2.0, 20),
            (std::vector<size_t>{0, 2}));
  // All disturbed: the least-stolen quarter, in run order.
  EXPECT_EQ(LeastStolen({8, 3, 9, 7, 6, 5, 4, 9}, std::vector<size_t>(8, 10),
                        2.0, 10),
            (std::vector<size_t>{1, 6}));
  // The clean chunks hold too few samples: add the least stolen.
  EXPECT_EQ(LeastStolen({0, 9, 4, 5}, {10, 10, 10, 10}, 2.0, 25),
            (std::vector<size_t>{0, 2, 3}));
  // Never more samples than the run has.
  EXPECT_EQ(LeastStolen({9, 9}, {5, 5}, 2.0, 1000).size(), 2u);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.name = "test";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, NestedAndSiblingChildren) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),   // Root.
      MakeSpan(2, 1, 10, 30),   // Child, overlaps its sibling 3.
      MakeSpan(3, 1, 20, 50),   // Child.
      MakeSpan(4, 1, 60, 70),   // Child, disjoint.
      MakeSpan(5, 2, 12, 20),   // Grandchild: inside 2, not counted for 1.
      MakeSpan(6, 0, 200, 210)  // Another root without children.
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - (50 - 10) - (70 - 60));
  EXPECT_EQ(self[1], 20 - 8);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 8);
  EXPECT_EQ(self[5], 10);
}

TEST(SelfTimeTest, ChildOutsideParentIsClipped) {
  const std::vector<Span> spans = {MakeSpan(1, 0, 0, 10),
                                   MakeSpan(2, 1, 5, 25),
                                   MakeSpan(3, 99, 0, 4)};  // Parent absent.
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 5);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 4);
}

TEST(TracerTest, ScopesNestAndCarryContext) {
  Tracer::Drain();
  Tracer::SetEnabled(true);
  {
    const ScopedContext context(3, 7);
    ScopedSpan outer("outer");
    {
      ScopedSpan inner("inner");
      inner.set_items(42);
    }
  }
  { ScopedSpan sibling("sibling"); }
  Tracer::SetEnabled(false);
  { ScopedSpan ignored("off"); }
  const std::vector<Span> spans = Tracer::Drain();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].items, 42u);
  EXPECT_EQ(spans[1].session, 3u);
  EXPECT_EQ(spans[1].query, 7u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[2].parent, 0u);
  EXPECT_EQ(spans[2].session, kNoId);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);

  LayerTotals totals;
  Accumulate(spans, &totals);
  EXPECT_EQ(totals["outer"].count, 1u);
  EXPECT_EQ(totals["inner"].items, 42u);
  EXPECT_EQ(totals["outer"].self_ns,
            totals["outer"].total_ns - totals["inner"].total_ns);
}

// ---- Decorator bit-identity -------------------------------------------

struct SmallStack {
  scout::Dataset dataset;
  std::unique_ptr<scout::RTreeIndex> rtree;
  SmallStack() {
    dataset = scout::GenerateNeuronTissue(
        scout::NeuronConfigForObjectCount(8000, 3));
    rtree = std::move(scout::RTreeIndex::Build(dataset.objects)).value();
  }
};

const SmallStack& Stack() {
  static const SmallStack stack;
  return stack;
}

std::vector<scout::GuidedSequence> Sequences(const scout::MicrobenchSpec& spec,
                                             int n) {
  scout::Rng rng(17);
  std::vector<scout::GuidedSequence> out;
  for (int i = 0; i < n; ++i) {
    scout::Rng seq_rng = rng.Fork();
    out.push_back(scout::GenerateGuidedSequence(
        Stack().dataset, scout::QueryConfigFor(spec), &seq_rng));
  }
  return out;
}

const scout::MicrobenchSpec& SpecNamed(std::string_view name) {
  for (const scout::MicrobenchSpec& s : scout::kMicrobenchmarks) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "no spec " << name;
  return scout::kMicrobenchmarks[0];
}

void ExpectSameSim(const scout::SequenceRunStats& a,
                   const scout::SequenceRunStats& b) {
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    const scout::QueryRunStats& x = a.queries[i];
    const scout::QueryRunStats& y = b.queries[i];
    EXPECT_EQ(x.pages_total, y.pages_total) << i;
    EXPECT_EQ(x.pages_hit, y.pages_hit) << i;
    EXPECT_EQ(x.result_objects, y.result_objects) << i;
    EXPECT_EQ(x.residual_io_us, y.residual_io_us) << i;
    EXPECT_EQ(x.disk_wait_us, y.disk_wait_us) << i;
    EXPECT_EQ(x.response_us, y.response_us) << i;
    EXPECT_EQ(x.window_us, y.window_us) << i;
    EXPECT_EQ(x.observe_us, y.observe_us) << i;
    EXPECT_EQ(x.graph_build_us, y.graph_build_us) << i;
    EXPECT_EQ(x.prediction_us, y.prediction_us) << i;
    EXPECT_EQ(x.prefetch_pages, y.prefetch_pages) << i;
    EXPECT_EQ(x.graph_vertices, y.graph_vertices) << i;
    EXPECT_EQ(x.graph_edges, y.graph_edges) << i;
    EXPECT_EQ(x.num_candidates, y.num_candidates) << i;
    EXPECT_EQ(x.was_reset, y.was_reset) << i;
    EXPECT_EQ(x.admission_closed_window, y.admission_closed_window) << i;
    EXPECT_EQ(x.outcome, y.outcome) << i;
  }
}

std::unique_ptr<scout::Prefetcher> Traced(PrefetchProbe* probe) {
  return std::make_unique<TracingPrefetcher>(
      std::make_unique<scout::ScoutPrefetcher>(scout::ScoutConfig{}), probe);
}

TEST(DecoratorTest, SimulatedRunIsBitIdentical) {
  const scout::MicrobenchSpec& spec = SpecNamed("vis-high-quality");
  const scout::ExecutorConfig cfg =
      scout::ExecutorConfigFor(spec, Stack().rtree->store());
  scout::ScoutPrefetcher bare_pf{scout::ScoutConfig{}};
  scout::QueryExecutor bare(Stack().rtree.get(), &bare_pf, cfg);
  PrefetchProbe probe;
  const std::unique_ptr<scout::Prefetcher> traced_pf = Traced(&probe);
  const TracingIndex traced_index(Stack().rtree.get());
  scout::QueryExecutor traced(&traced_index, traced_pf.get(), cfg);

  Tracer::SetEnabled(true);
  for (const scout::GuidedSequence& g : Sequences(spec, 3)) {
    ExpectSameSim(bare.RunSequence(g.queries), traced.RunSequence(g.queries));
  }
  Tracer::SetEnabled(false);
  const std::vector<Span> spans = Tracer::Drain();
  EXPECT_FALSE(spans.empty());
  EXPECT_GT(probe.observes, 0u);
}

TEST(DecoratorTest, SharedRunIsBitIdentical) {
  const scout::MicrobenchSpec& spec = SpecNamed("model-building");
  scout::ExecutorConfig cfg =
      scout::ExecutorConfigFor(spec, Stack().rtree->store());
  cfg.serving = scout::SharedServingConfig{};
  PrefetchProbe probe;
  std::vector<int64_t> starts;
  probe.observe_starts = &starts;
  const TracingIndex traced_index(Stack().rtree.get());
  scout::MultiClientEngine bare(
      Stack().dataset, *Stack().rtree,
      [] {
        return std::make_unique<scout::ScoutPrefetcher>(scout::ScoutConfig{});
      },
      scout::QueryConfigFor(spec), cfg, 3, 5);
  scout::MultiClientEngine traced(
      Stack().dataset, traced_index, [&probe] { return Traced(&probe); },
      scout::QueryConfigFor(spec), cfg, 3, 5);

  const scout::MultiClientOutcome a = bare.Run(2);
  Tracer::SetEnabled(true);
  const scout::MultiClientOutcome b = traced.Run(2);
  Tracer::SetEnabled(false);
  Tracer::Drain();
  ASSERT_EQ(a.runs.size(), b.runs.size());
  size_t queries = 0;
  for (size_t s = 0; s < a.runs.size(); ++s) {
    ExpectSameSim(a.runs[s], b.runs[s]);
    ExpectSameSim(a.baselines[s], b.baselines[s]);
    queries += a.runs[s].queries.size();
  }
  EXPECT_EQ(a.disk_stats.requests, b.disk_stats.requests);
  EXPECT_EQ(a.disk_stats.wait_us, b.disk_stats.wait_us);
  // Every session's Observe entry was stamped, tracing on or off.
  EXPECT_EQ(starts.size(), queries);
}

TEST(DecoratorTest, FileRunDecodesTheSameResults) {
  const scout::MicrobenchSpec& spec = SpecNamed("model-building");
  const std::string path = ::testing::TempDir() + "/scoutbench_test.pages";
  ASSERT_TRUE(
      scout::FilePageStore::WriteFile(Stack().rtree->store(), path).ok());
  auto opened = scout::FilePageStore::Open(path);
  ASSERT_TRUE(opened.ok());
  const std::unique_ptr<scout::FilePageStore> store =
      std::move(opened).value();
  scout::ExecutorConfig cfg =
      scout::ExecutorConfigFor(spec, Stack().rtree->store());
  cfg.io.backend = scout::IoBackend::kFile;
  cfg.io.store = store.get();
  cfg.io.async_prefetch = true;
  cfg.io.prefetch_budget_pages = 4;

  scout::ScoutPrefetcher bare_pf{scout::ScoutConfig{}};
  scout::QueryExecutor bare(Stack().rtree.get(), &bare_pf, cfg);
  PrefetchProbe probe;
  const std::unique_ptr<scout::Prefetcher> traced_pf = Traced(&probe);
  const TracingIndex traced_index(Stack().rtree.get());
  scout::QueryExecutor traced(&traced_index, traced_pf.get(), cfg);

  Tracer::SetEnabled(true);
  for (const scout::GuidedSequence& g : Sequences(spec, 2)) {
    const scout::FileSequenceStats a = bare.RunSequenceFile(g.queries);
    const scout::FileSequenceStats b = traced.RunSequenceFile(g.queries);
    uint64_t oracle = scout::QueryExecutor::kResultHashSeed;
    scout::QueryExecutor::PreparedQuery prep;
    for (const scout::Region& region : g.queries) {
      scout::QueryExecutor::Prepare(*Stack().rtree, region, &prep);
      oracle = scout::QueryExecutor::HashPreparedObjects(oracle, prep.objects);
    }
    EXPECT_EQ(a.result_hash, oracle);
    EXPECT_EQ(b.result_hash, oracle);
    EXPECT_EQ(a.demand_order, b.demand_order);
    EXPECT_EQ(a.prefetch_order, b.prefetch_order);
    EXPECT_EQ(a.TotalPagesHit(), b.TotalPagesHit());
  }
  Tracer::SetEnabled(false);
  Tracer::Drain();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace scoutbench
