#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "decorators.h"
#include "host.h"
#include "engine/experiment.h"
#include "engine/multi_client_engine.h"
#include "engine/query_executor.h"
#include "index/rtree.h"
#include "percentile.h"
#include "prefetch/no_prefetch.h"
#include "prefetch/scout_prefetcher.h"
#include "storage/fault_model.h"
#include "storage/file_page_store.h"
#include "trace.h"
#include "workload/generators.h"
#include "workload/query_gen.h"

namespace scoutbench {
namespace {

using scout::ExecutorConfig;
using scout::FilePageStore;
using scout::FileSequenceStats;
using scout::GuidedSequence;
using scout::MicrobenchSpec;
using scout::MultiClientEngine;
using scout::MultiClientOutcome;
using scout::QueryExecutor;
using scout::QueryRunStats;
using scout::SequenceRunStats;
using scout::SimMicros;
using scout::Stopwatch;

// ---- Scale. The dataset is the baseline recorder's, fixed; the work is
// generated from --seed. A workload's simulated metrics are fixed by its
// pool, so the pools are large: with a few dozen sequences they spread
// by 20-40% from seed to seed. The timed phase cycles over the pool in
// chunks. Every pool holds well over 1000 queries, so the nearest-rank
// p99 always has ten samples beyond it.
constexpr uint64_t kObjects = 120000;
constexpr uint64_t kDatasetSeed = 1;
constexpr int kSetupReps = 9;
constexpr size_t kFollowSequences = 200;  // x 35 queries, timed.
/// The simulated oracle serves more sequences than the timed file pool
/// (whose size the 300 us device latency caps): the first 200 of them
/// are the timed ones.
constexpr size_t kFollowOracleSequences = 1000;
constexpr size_t kFollowChunk = 8;
constexpr size_t kVisSequences = 600;  // x 65 queries, fewer where a
constexpr size_t kVisChunk = 15;       // structure ends early.
constexpr size_t kSharedEngines = 160;  // x 8 sessions x 35 queries.
constexpr size_t kSharedChunk = 4;
/// Threads for the work before the timed phase: generating a sequence
/// costs several times what serving it does.
constexpr unsigned kGenerationThreads = 4;

/// CPUs every timed phase runs on. The engine starts threads of its own
/// (the grid-hash graph build's tiles on every query, the multi-client
/// engine's workers, the async fetch worker). On a virtual machine whose
/// host takes CPU time away in bursts, work spread over all CPUs waits
/// whenever any one of them stalls: with 8-13% of the time stolen,
/// vis-sim served half the queries per second. On one CPU those threads
/// take turns, steal costs in proportion, and the fastest runs were as
/// fast as the fastest spread-out ones on vis-sim, shared-n8 and
/// follow-file (whose reads are timed sleeps that overlap on one CPU).
constexpr size_t kTimedCpus = 1;

constexpr uint32_t kSessions = 8;
/// Worker threads of the multi-client engine: fixed, so the work per run
/// does not depend on the host, and never above the host's core count.
constexpr uint32_t kSharedWorkers = 4;

// fig_wallclock's real-I/O settings.
constexpr int64_t kDeviceLatencyUs = 300;
constexpr int64_t kThinkTimeUs = 300;
constexpr size_t kPrefetchBudgetPages = 4;

/// Wall-clock percentiles are medians over runs of this many consecutive
/// queries, so that a burst of load from other processes on the host
/// moves a few runs and not the reported value. Simulated percentiles
/// are deterministic and taken over the whole pool.
constexpr size_t kWallWindow = 2000;

/// A chunk during which the hypervisor stole more than this share of the
/// machine's CPU time is left out of the wall-clock metrics where enough
/// others are left (see Pass::Measured). On a shared virtual host steal
/// comes in bursts of a few seconds; follow-file runs with 10-16% steal
/// served a third fewer queries per second, at a p99 up to 70% higher,
/// than runs without.
constexpr double kMaxChunkStealPct = 2.0;

/// Raw spans kept for the Chrome trace file (the first chunk's, capped);
/// the per-layer metrics use every span.
constexpr size_t kMaxTraceFileSpans = 200000;

/// The per-layer metrics, in BENCHMARK.json order. Every traced run
/// prints all of them; a layer a workload does not run reads 0.
struct LayerDef {
  const char* name;
  const char* unit;
};
constexpr LayerDef kLayers[] = {
    {"index.query_pages_us", "us"},
    {"index.calls_per_query", "count"},
    {"index.pages_per_query", "count"},
    {"engine.prepare_us", "us"},
    {"engine.filter_self_us", "us"},
    {"engine.serve_self_us", "us"},
    {"graph.build_us", "us"},
    {"graph.vertices_per_query", "count"},
    {"graph.edges_per_query", "count"},
    {"prefetch.observe_us", "us"},
    {"prefetch.predict_self_us", "us"},
    {"prefetch.run_prefetch_us", "us"},
    {"prefetch.fetch_us", "us"},
    {"prefetch.pages_per_query", "count"},
    {"prefetch.hits_per_fetch", "ratio"},
    {"prefetch.async.prefetch_reads", "count"},
    {"prefetch.async.late_hit_waits", "count"},
    {"prefetch.async.late_hit_share_pct", "%"},
    {"storage.cache.probe_us", "us"},
    {"storage.cache.evictions", "count"},
    {"storage.cache.peak_pages", "count"},
    {"storage.cache.cross_hit_share_pct", "%"},
    {"storage.cache.admission_closed_windows", "count"},
    {"storage.disk.residual_io_us", "us"},
    {"storage.disk.miss_pages_per_query", "count"},
    {"storage.shared_disk.wait_us", "us"},
    {"storage.shared_disk.service_us", "us"},
    {"storage.shared_disk.requests", "count"},
    {"storage.shared_disk.reordered_pages", "count"},
    {"storage.shared_disk.busy_pct", "%"},
    {"storage.fault.faults_seen", "count"},
    {"storage.fault.retries", "count"},
    {"storage.fault.backoff_wait_us", "us"},
    {"storage.fault.shed_prefetches", "count"},
    {"storage.fault.deadline_misses", "count"},
    {"storage.fault.unavailable", "count"},
    {"storage.file.reads", "count"},
    {"storage.file.failed_reads", "count"},
    {"storage.file.demand_reads_per_query", "count"},
    {"storage.file.read_us", "us"},
    {"workload.generate_s", "s"},
    {"index.build_s", "s"},
    {"storage.file.write_s", "s"},
    {"trace.overhead_pct", "%"},
};

using Layers = std::map<std::string, double>;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Order-sensitive fold of the deterministic results of a round.
struct Fingerprint {
  uint64_t h = QueryExecutor::kResultHashSeed;
  void Add(uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 1099511628211ull;
  }
};

void AddSim(const SequenceRunStats& s, Fingerprint* fp) {
  fp->Add(s.queries.size());
  for (const QueryRunStats& q : s.queries) {
    for (const uint64_t v :
         {static_cast<uint64_t>(q.pages_total), uint64_t{q.pages_hit},
          uint64_t{q.result_objects}, static_cast<uint64_t>(q.residual_io_us),
          static_cast<uint64_t>(q.disk_wait_us),
          static_cast<uint64_t>(q.response_us),
          static_cast<uint64_t>(q.window_us),
          static_cast<uint64_t>(q.observe_us),
          static_cast<uint64_t>(q.graph_build_us),
          static_cast<uint64_t>(q.prediction_us), uint64_t{q.prefetch_pages},
          uint64_t{q.graph_vertices}, uint64_t{q.graph_edges},
          uint64_t{q.graph_memory_bytes}, uint64_t{q.num_candidates},
          uint64_t{q.was_reset}, uint64_t{q.admission_closed_window},
          static_cast<uint64_t>(q.outcome), q.faults_seen,
          uint64_t{q.retries}, static_cast<uint64_t>(q.backoff_wait_us),
          uint64_t{q.shed_prefetches}}) {
      fp->Add(v);
    }
  }
}

void AddFile(const FileSequenceStats& s, Fingerprint* fp) {
  fp->Add(s.result_hash);
  for (const scout::FileQueryStats& q : s.queries) {
    for (const uint64_t v :
         {uint64_t{q.pages_total}, uint64_t{q.pages_hit},
          uint64_t{q.result_objects}, uint64_t{q.demand_reads},
          uint64_t{q.prefetch_planned}, q.faults_seen, uint64_t{q.retries},
          static_cast<uint64_t>(q.outcome)}) {
      fp->Add(v);
    }
  }
  for (const scout::PageId p : s.demand_order) fp->Add(p);
  for (const scout::PageId p : s.prefetch_order) fp->Add(p);
}

void AddOutcome(const MultiClientOutcome& o, Fingerprint* fp) {
  for (const SequenceRunStats& s : o.runs) AddSim(s, fp);
  for (const SequenceRunStats& s : o.baselines) AddSim(s, fp);
  for (const scout::CacheSessionStats& c : o.cache_stats) {
    for (const uint64_t v : {c.inserts, c.hits_own, c.hits_cross,
                             c.evictions_caused, c.pages_evicted}) {
      fp->Add(v);
    }
  }
  const scout::DiskQueueStats& d = o.disk_stats;
  for (const uint64_t v :
       {d.requests, d.batches, d.random_reads, d.sequential_reads,
        d.reordered_pages, d.failed_reads,
        static_cast<uint64_t>(d.service_us), static_cast<uint64_t>(d.wait_us),
        static_cast<uint64_t>(d.outage_wait_us)}) {
    fp->Add(v);
  }
}

const MicrobenchSpec& Spec(std::string_view name) {
  for (const MicrobenchSpec& s : scout::kMicrobenchmarks) {
    if (s.name == name) return s;
  }
  std::fprintf(stderr, "scoutbench: no Figure-10 spec named %.*s\n",
               static_cast<int>(name.size()), name.data());
  std::abort();
}

/// Dataset generation, index build and (with a page file path) the page
/// file write, repeated kSetupReps times; the last repetition is kept.
struct Setup {
  scout::Dataset dataset;
  std::unique_ptr<scout::RTreeIndex> rtree;
  std::vector<double> generate_s, build_s, write_s, total_s;
};

bool RunSetup(const std::string& pagefile, Setup* s, std::string* error) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s->rtree.reset();
    s->dataset = scout::Dataset{};
    const Stopwatch total;
    Stopwatch sw;
    s->dataset = scout::GenerateNeuronTissue(
        scout::NeuronConfigForObjectCount(kObjects, kDatasetSeed));
    s->generate_s.push_back(sw.ElapsedSeconds());
    sw.Restart();
    auto built = scout::RTreeIndex::Build(s->dataset.objects);
    if (!built.ok()) {
      *error = "index build failed: " + built.status().message();
      return false;
    }
    s->rtree = std::move(built).value();
    s->build_s.push_back(sw.ElapsedSeconds());
    sw.Restart();
    if (!pagefile.empty()) {
      const scout::Status wrote =
          FilePageStore::WriteFile(s->rtree->store(), pagefile);
      if (!wrote.ok()) {
        *error = "page file write failed: " + wrote.message();
        return false;
      }
    }
    s->write_s.push_back(sw.ElapsedSeconds());
    s->total_s.push_back(total.ElapsedSeconds());
  }
  return true;
}

/// Runs fn(i) for every i in [0, n) on up to kGenerationThreads threads,
/// for work outside the timed phase (inputs, oracles, denominators).
/// fn(i) must write nothing but slot i.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  const size_t threads = std::min<size_t>(
      n, std::max(1u, std::min(kGenerationThreads,
                               std::thread::hardware_concurrency())));
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

/// `n` guided sequences of `spec`, sequence i from the i-th fork of
/// `rng`; sequences whose structure yields no query are dropped.
std::vector<GuidedSequence> MakePool(const scout::Dataset& dataset,
                                     const MicrobenchSpec& spec, size_t n,
                                     scout::Rng* rng) {
  std::vector<scout::Rng> forks;
  for (size_t i = 0; i < n; ++i) forks.push_back(rng->Fork());
  std::vector<GuidedSequence> all(n);
  const scout::QuerySequenceConfig qcfg = scout::QueryConfigFor(spec);
  ParallelFor(n, [&](size_t i) {
    all[i] = scout::GenerateGuidedSequence(dataset, qcfg, &forks[i]);
  });
  std::vector<GuidedSequence> pool;
  for (GuidedSequence& g : all) {
    if (!g.queries.empty()) pool.push_back(std::move(g));
  }
  return pool;
}

size_t ChunkCount(size_t items, size_t per_chunk) {
  return (items + per_chunk - 1) / per_chunk;
}

/// What a chunk of the pool reports back to the timed pass.
struct ChunkResult {
  uint64_t fingerprint = 0;  ///< Of the chunk's deterministic results.
  double seconds = 0.0;      ///< Wall time of the timed work only.
};

/// Wall-clock measurements of one timed chunk.
struct ChunkTiming {
  double queries_per_s = 0.0;
  size_t samples_begin = 0;  ///< Its range of Pass::wall_response_us.
  size_t samples_end = 0;
  /// Share of the machine's CPU time the hypervisor stole while the
  /// chunk ran.
  double steal_pct = 0.0;
};

/// One timed pass over a workload's pool, chunk by chunk. The pool is
/// run once whole; then, while the pass has time left, chunks are rerun
/// in order, and each rerun must reproduce its first run exactly.
struct Pass {
  std::vector<ChunkTiming> chunks;
  uint64_t queries = 0;
  /// Queries that ended non-OK: served degraded, as the fault policy
  /// defines, not failed.
  uint64_t degraded_queries = 0;
  /// Queries of a chunk or sequence whose output failed a check.
  uint64_t failed_queries = 0;
  std::vector<double> wall_response_us;
  std::vector<uint64_t> fingerprints;  ///< First run of each chunk.
  size_t reruns = 0;
  size_t rerun_mismatches = 0;
  double seconds = 0.0;                ///< Timed work, all chunks.
  LayerTotals spans;                   ///< Traced pass only.
  std::vector<Span> trace_file_spans;  ///< Traced pass only.

  /// The chunks the wall-clock metrics are taken over (LeastStolen).
  std::vector<const ChunkTiming*> Measured() const {
    std::vector<double> steal;
    std::vector<size_t> samples;
    for (const ChunkTiming& c : chunks) {
      steal.push_back(c.steal_pct);
      samples.push_back(c.samples_end - c.samples_begin);
    }
    std::vector<const ChunkTiming*> out;
    for (const size_t i :
         LeastStolen(steal, samples, kMaxChunkStealPct, kWallWindow)) {
      out.push_back(&chunks[i]);
    }
    return out;
  }

  /// Median over the measured chunks: robust to a burst of host noise in
  /// a few of them.
  double QueriesPerSecond() const {
    std::vector<double> rates;
    for (const ChunkTiming* c : Measured()) rates.push_back(c->queries_per_s);
    return Median(rates);
  }

  /// The measured chunks' wall response samples, in the order taken.
  std::vector<double> WallResponseUs() const {
    std::vector<double> out;
    for (const ChunkTiming* c : Measured()) {
      out.insert(out.end(), wall_response_us.begin() + c->samples_begin,
                 wall_response_us.begin() + c->samples_end);
    }
    return out;
  }

  uint64_t Digest() const {
    Fingerprint fp;
    for (const uint64_t f : fingerprints) fp.Add(f);
    return fp.h;
  }
};

/// `run_chunk(chunk, first_run, pass)` runs one chunk of the pool, adds
/// its wall samples and query counts to `pass` and returns a ChunkResult.
/// The pass runs on kTimedCpus CPUs.
template <typename RunChunk>
Pass TimedPass(size_t chunks, double seconds, bool traced,
               RunChunk&& run_chunk) {
  Pass pass;
  if (chunks == 0) return pass;  // Empty pool: the percentiles report it.
  const ScopedCpuBudget budget(kTimedCpus);
  Tracer::Drain();
  Tracer::SetEnabled(traced);
  const Stopwatch total;
  for (size_t i = 0;; ++i) {
    const size_t chunk = i % chunks;
    const bool first_run = i < chunks;
    const uint64_t before = pass.queries;
    ChunkTiming timing;
    timing.samples_begin = pass.wall_response_us.size();
    const CpuTicks ticks = CpuTicks::Now();
    const ChunkResult r = run_chunk(chunk, first_run, &pass);
    timing.steal_pct = CpuTicks::Now().StealPctSince(ticks);
    timing.samples_end = pass.wall_response_us.size();
    timing.queries_per_s =
        Ratio(static_cast<double>(pass.queries - before), r.seconds);
    pass.chunks.push_back(timing);
    pass.seconds += r.seconds;
    if (first_run) {
      pass.fingerprints.push_back(r.fingerprint);
    } else {
      ++pass.reruns;
      if (r.fingerprint != pass.fingerprints[chunk]) {
        ++pass.rerun_mismatches;
        pass.failed_queries += pass.queries - before;
      }
    }
    if (traced) {
      std::vector<Span> spans = Tracer::Drain();
      Accumulate(spans, &pass.spans);
      if (i == 0) {
        spans.resize(std::min(spans.size(), kMaxTraceFileSpans));
        pass.trace_file_spans = std::move(spans);
      }
    }
    if (i + 1 >= chunks && total.ElapsedSeconds() >= seconds) break;
  }
  Tracer::SetEnabled(false);
  return pass;
}

void CheckReruns(const Pass& pass, const char* what, Report* r) {
  if (pass.rerun_mismatches > 0) {
    r->failures.push_back(std::string(what) + ": " +
                          std::to_string(pass.rerun_mismatches) + " of " +
                          std::to_string(pass.reruns) +
                          " rerun chunks differ from their first run");
  }
}

/// `window` 0 takes the percentile over all of `v`; otherwise it is the
/// median over runs of `window` consecutive samples (MedianOfWindows).
void AddPercentile(const std::string& base, const std::vector<double>& v,
                   size_t window, int wanted, Report* r) {
  const Percentile p = MedianOfWindows(v, window, wanted);
  if (!p.reported()) {
    r->failures.push_back(base + ": too few samples (" +
                          std::to_string(v.size()) + ") for a percentile");
    return;
  }
  r->metrics.push_back(
      {PercentileName(base, p.pct, "us"), p.value, "us", p.samples});
}

/// Simulated results of one pass over a pool, folded sequence by sequence.
struct SimTotals {
  std::vector<double> response_us;
  double sequences = 0, total_response_us = 0, queries = 0, pages = 0, hits = 0,
         prefetched = 0, residual_us = 0, closed_windows = 0, faults = 0,
         retries = 0, backoff_us = 0, shed = 0, deadline = 0, unavailable = 0;

  void Add(const SequenceRunStats& s) {
    for (const QueryRunStats& q : s.queries) {
      response_us.push_back(static_cast<double>(q.response_us));
    }
    ++sequences;
    total_response_us += static_cast<double>(s.TotalResponseUs());
    queries += static_cast<double>(s.queries.size());
    pages += static_cast<double>(s.TotalPagesTotal());
    hits += static_cast<double>(s.TotalPagesHit());
    prefetched += static_cast<double>(s.TotalPrefetchPages());
    residual_us += static_cast<double>(s.TotalResidualUs());
    closed_windows += static_cast<double>(s.TotalAdmissionClosedWindows());
    faults += static_cast<double>(s.TotalFaultsSeen());
    retries += static_cast<double>(s.TotalRetries());
    backoff_us += static_cast<double>(s.TotalBackoffWaitUs());
    shed += static_cast<double>(s.TotalShedPrefetches());
    deadline += static_cast<double>(s.DeadlineMisses());
    unavailable += static_cast<double>(s.UnavailableQueries());
  }

  double HitRatePct() const { return 100.0 * Ratio(hits, pages); }

  void AddLayers(Layers* l) const {
    (*l)["prefetch.pages_per_query"] = Ratio(prefetched, queries);
    (*l)["prefetch.hits_per_fetch"] = Ratio(hits, prefetched);
    (*l)["storage.cache.admission_closed_windows"] = closed_windows;
    (*l)["storage.disk.residual_io_us"] = Ratio(residual_us, queries);
    (*l)["storage.disk.miss_pages_per_query"] = Ratio(pages - hits, queries);
    (*l)["storage.fault.faults_seen"] = faults;
    (*l)["storage.fault.retries"] = retries;
    (*l)["storage.fault.backoff_wait_us"] = Ratio(backoff_us, queries);
    (*l)["storage.fault.shed_prefetches"] = shed;
    (*l)["storage.fault.deadline_misses"] = deadline;
    (*l)["storage.fault.unavailable"] = unavailable;
  }
};

/// The end-to-end metrics of a run, in BENCHMARK.json order.
struct EndToEnd {
  double setup_s = 0.0;
  double sim_speedup = 0.0;
  double hit_rate_pct = 0.0;
  const std::vector<double>* sim_response_us = nullptr;
};

void AddEndToEnd(const EndToEnd& e, const Pass& untraced, Report* r) {
  r->metrics.push_back({"setup_s", e.setup_s, "s", 0});
  r->metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", 0});
  r->metrics.push_back(
      {"queries_per_s", untraced.QueriesPerSecond(), "1/s", 0});
  const std::vector<const ChunkTiming*> measured = untraced.Measured();
  r->facts.emplace_back("timed_chunks",
                        static_cast<double>(untraced.chunks.size()));
  r->facts.emplace_back("measured_chunks",
                        static_cast<double>(measured.size()));
  double measured_steal = 0;
  for (const ChunkTiming* c : measured) {
    measured_steal = std::max(measured_steal, c->steal_pct);
  }
  r->facts.emplace_back("measured_chunk_steal_pct_max", measured_steal);
  const std::vector<double> wall = untraced.WallResponseUs();
  AddPercentile("wall_response", wall, kWallWindow, 50, r);
  AddPercentile("wall_response", wall, kWallWindow, 99, r);
  // The mean, not the median: on vis-sim the simulated response is
  // bimodal (all-hit queries under 1 ms, queries with a miss over 5 ms)
  // and the median sits at the gap, so it jumps between the modes from
  // seed to seed.
  const std::vector<double>& sim = *e.sim_response_us;
  double sim_sum = 0;
  for (const double v : sim) sim_sum += v;
  r->metrics.push_back({"sim_response_mean_us",
                        Ratio(sim_sum, static_cast<double>(sim.size())), "us",
                        sim.size()});
  AddPercentile("sim_response", sim, 0, 99, r);
  r->metrics.push_back({"sim_speedup", e.sim_speedup, "x", 0});
  r->metrics.push_back({"hit_rate_pct", e.hit_rate_pct, "%", 0});
  r->metrics.push_back(
      {"ok_query_pct",
       100.0 * Ratio(static_cast<double>(untraced.queries -
                                         untraced.degraded_queries),
                     static_cast<double>(untraced.queries)),
       "%", 0});
}

/// Layer metrics read off the spans and the prefetcher probe of a traced
/// pass.
void AddSpanLayers(const Pass& traced, const PrefetchProbe& probe,
                   Layers* l) {
  const auto get = [&traced](const char* name) {
    const auto it = traced.spans.find(name);
    return it == traced.spans.end() ? LayerTotal{} : it->second;
  };
  const double q = static_cast<double>(traced.queries);
  const auto per_query_us = [q](int64_t ns) {
    return Ratio(static_cast<double>(ns) / 1e3, q);
  };
  const LayerTotal pages = get("index.QueryPages");
  const LayerTotal ordered = get("index.QueryPagesOrdered");
  (*l)["index.query_pages_us"] =
      per_query_us(pages.total_ns + ordered.total_ns);
  (*l)["index.calls_per_query"] =
      Ratio(static_cast<double>(pages.count + ordered.count), q);
  (*l)["index.pages_per_query"] =
      Ratio(static_cast<double>(pages.items + ordered.items), q);
  const LayerTotal prepare = get("engine.Prepare");
  (*l)["engine.prepare_us"] = per_query_us(prepare.total_ns);
  (*l)["engine.filter_self_us"] = per_query_us(prepare.self_ns);
  (*l)["engine.serve_self_us"] =
      per_query_us(get("engine.ExecuteQuery").self_ns);
  (*l)["graph.build_us"] = Ratio(static_cast<double>(probe.graph_build_us), q);
  (*l)["graph.vertices_per_query"] =
      Ratio(static_cast<double>(probe.graph_vertices), q);
  (*l)["graph.edges_per_query"] =
      Ratio(static_cast<double>(probe.graph_edges), q);
  const LayerTotal observe = get("prefetch.Observe");
  (*l)["prefetch.observe_us"] = per_query_us(observe.total_ns);
  (*l)["prefetch.predict_self_us"] =
      per_query_us(observe.total_ns - probe.inline_graph_build_us * 1000);
  (*l)["prefetch.run_prefetch_us"] =
      per_query_us(get("prefetch.RunPrefetch").total_ns);
  (*l)["prefetch.fetch_us"] =
      per_query_us(get("prefetch.io.FetchPage").total_ns);
  (*l)["storage.cache.probe_us"] =
      per_query_us(get("storage.cache.IsCached").total_ns);
  (*l)["storage.cache.peak_pages"] =
      static_cast<double>(probe.peak_cache_pages);
}

void AddLayers(const Layers& l, Report* r) {
  for (const LayerDef& d : kLayers) {
    const auto it = l.find(d.name);
    r->layers.push_back({d.name, it == l.end() ? 0.0 : it->second, d.unit, 0});
  }
  for (const auto& [name, value] : l) {
    const bool known = std::any_of(
        std::begin(kLayers), std::end(kLayers),
        [&name](const LayerDef& d) { return name == d.name; });
    if (!known) r->failures.push_back("unlisted per-layer metric " + name);
  }
}

/// What every workload shares: the set-up stack, the seed-derived work
/// and the report being filled.
struct Context {
  const Options& options;
  Setup& setup;
  scout::Rng& rng;
  Report* report;
  Layers layers;

  double PassSeconds() const {
    return options.trace ? options.seconds / 2 : options.seconds;
  }

  void Fact(const std::string& name, double value) {
    report->facts.emplace_back(name, value);
  }

  /// Counts a timed pass's queries into the report.
  void Count(const Pass& pass, const char* what) {
    report->attempted += pass.queries;
    report->failed += pass.failed_queries;
    CheckReruns(pass, what, report);
  }

  /// The traced pass must reproduce the untraced one bit for bit; its
  /// spans become the per-layer metrics.
  void FinishTraced(const Pass& untraced, const Pass& traced,
                    const PrefetchProbe& probe) {
    if (traced.Digest() != untraced.Digest()) {
      report->failed += traced.queries;
      report->failures.push_back(
          "the traced pass differs from the untraced pass in its "
          "deterministic results");
    }
    AddSpanLayers(traced, probe, &layers);
    layers["trace.overhead_pct"] =
        100.0 * (Ratio(untraced.QueriesPerSecond(),
                       traced.QueriesPerSecond()) -
                 1.0);
    if (!options.trace_file.empty() &&
        !WriteChromeTrace(options.trace_file, traced.trace_file_spans)) {
      std::fprintf(stderr, "scoutbench: cannot write %s\n",
                   options.trace_file.c_str());
    }
  }
};

// =====================================================================
// follow-file: model-building sequences served from the on-disk page
// file by RunSequenceFile with async prefetch; every sequence cold.
// =====================================================================
class FollowFile {
 public:
  FollowFile(Context* ctx, const std::string& pagefile)
      : ctx_(ctx), pagefile_(pagefile), spec_(Spec("model-building")) {}

  bool Run() {
    const Setup& s = ctx_->setup;
    std::vector<GuidedSequence> oracle_pool =
        MakePool(s.dataset, spec_, kFollowOracleSequences, &ctx_->rng);
    auto opened = FilePageStore::Open(pagefile_, StoreOptions());
    if (!opened.ok()) {
      ctx_->report->failures.push_back("cannot open page file: " +
                                       opened.status().message());
      return false;
    }
    store_ = std::move(opened).value();

    // The simulated oracle, outside the timed passes: the result hash
    // each sequence must decode to, and the same sequences served from
    // the private simulated disk with and without prefetching.
    // Every sequence runs cold on its own executors, so they run on the
    // generation threads and are folded in pool order.
    const ExecutorConfig sim_cfg =
        scout::ExecutorConfigFor(spec_, s.rtree->store());
    std::vector<SequenceRunStats> runs(oracle_pool.size());
    std::vector<SimMicros> base(oracle_pool.size());
    ParallelFor(oracle_pool.size(), [&](size_t i) {
      scout::ScoutPrefetcher scout_pf{scout::ScoutConfig{}};
      scout::NoPrefetcher none;
      runs[i] = QueryExecutor(s.rtree.get(), &scout_pf, sim_cfg)
                    .RunSequence(oracle_pool[i].queries);
      base[i] = QueryExecutor(s.rtree.get(), &none, sim_cfg)
                    .RunSequence(oracle_pool[i].queries)
                    .TotalResponseUs();
    });
    SimTotals oracle;
    double base_total = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
      oracle.Add(runs[i]);
      base_total += static_cast<double>(base[i]);
    }
    oracle_pool.resize(std::min(oracle_pool.size(), kFollowSequences));
    pool_ = std::move(oracle_pool);
    QueryExecutor::PreparedQuery prep;
    for (const GuidedSequence& g : pool_) {
      uint64_t h = QueryExecutor::kResultHashSeed;
      for (const scout::Region& region : g.queries) {
        QueryExecutor::Prepare(*s.rtree, region, &prep);
        h = QueryExecutor::HashPreparedObjects(h, prep.objects);
      }
      expected_hash_.push_back(h);
    }

    const Pass untraced = RunPass(false);
    ctx_->Count(untraced, "follow-file");
    EndToEnd e;
    e.setup_s = Median(s.total_s);
    e.sim_speedup = Ratio(base_total, oracle.total_response_us);
    e.hit_rate_pct = 100.0 * Ratio(first_.hits, first_.pages);
    e.sim_response_us = &oracle.response_us;
    AddEndToEnd(e, untraced, ctx_->report);
    ctx_->Fact("pool_sequences", static_cast<double>(pool_.size()));
    ctx_->Fact("oracle_sequences", oracle.sequences);
    ctx_->Fact("cache_capacity_pages",
               static_cast<double>(sim_cfg.cache_bytes / scout::kPageBytes));
    ctx_->Fact("cache_pages_at_sequence_end_max",
               static_cast<double>(first_.end_pages_max));
    ctx_->Fact("cache_evictions", first_.evictions);
    ctx_->Fact("timed_s", untraced.seconds);
    if (!ctx_->options.trace) return true;

    const Pass traced = RunPass(true);
    ctx_->Count(traced, "follow-file traced");
    ctx_->FinishTraced(untraced, traced, probe_);
    Layers& l = ctx_->layers;
    l["prefetch.pages_per_query"] = Ratio(first_.planned, first_.queries);
    l["prefetch.hits_per_fetch"] = Ratio(first_.hits, first_.planned);
    l["prefetch.async.prefetch_reads"] = first_.planned;
    l["prefetch.async.late_hit_waits"] = first_.late_hit_waits;
    l["prefetch.async.late_hit_share_pct"] =
        100.0 * Ratio(first_.late_hit_waits, first_.hits);
    l["storage.cache.evictions"] = first_.evictions;
    l["storage.file.reads"] = first_.reads;
    l["storage.file.failed_reads"] = first_.failed_reads;
    l["storage.file.demand_reads_per_query"] =
        Ratio(first_.demand, first_.queries);
    l["storage.file.read_us"] = ReplayReadUs();
    return true;
  }

 private:
  /// Counters of the first run over the pool in the last pass.
  struct FirstRun {
    double queries = 0, pages = 0, hits = 0, planned = 0, demand = 0,
           late_hit_waits = 0, evictions = 0, reads = 0, failed_reads = 0;
    size_t end_pages_max = 0;
    std::vector<scout::PageId> replay;  ///< Demand, then prefetch, reads.
  };

  static scout::FilePageStoreOptions StoreOptions() {
    scout::FilePageStoreOptions o;
    o.device_latency_us = kDeviceLatencyUs;
    return o;
  }

  Pass RunPass(bool traced) {
    const Setup& s = ctx_->setup;
    probe_ = PrefetchProbe{};
    first_ = FirstRun{};
    TracingIndex traced_index(s.rtree.get());
    std::unique_ptr<scout::Prefetcher> prefetcher =
        std::make_unique<scout::ScoutPrefetcher>(scout::ScoutConfig{});
    if (traced) {
      prefetcher =
          std::make_unique<TracingPrefetcher>(std::move(prefetcher), &probe_);
    }
    ExecutorConfig cfg = scout::ExecutorConfigFor(spec_, s.rtree->store());
    cfg.io.backend = scout::IoBackend::kFile;
    cfg.io.store = store_.get();
    cfg.io.async_prefetch = true;
    cfg.io.prefetch_budget_pages = kPrefetchBudgetPages;
    cfg.io.think_time_us = kThinkTimeUs;
    QueryExecutor executor(
        traced ? static_cast<const scout::SpatialIndex*>(&traced_index)
               : s.rtree.get(),
        prefetcher.get(), cfg);
    probe_.cache = &executor.cache();
    const uint64_t reads = store_->reads();
    const uint64_t failed_reads = store_->failed_reads();
    const size_t chunks = ChunkCount(pool_.size(), kFollowChunk);

    Pass pass = TimedPass(chunks, ctx_->PassSeconds(), traced,
                          [&](size_t chunk, bool first_run, Pass* pass) {
      Fingerprint fp;
      const Stopwatch sw;
      const size_t end =
          std::min(pool_.size(), (chunk + 1) * kFollowChunk);
      for (size_t i = chunk * kFollowChunk; i < end; ++i) {
        FileSequenceStats st;
        {
          const ScopedContext context(0, kNoId);
          ScopedSpan span("engine.RunSequenceFile");
          st = executor.RunSequenceFile(pool_[i].queries);
        }
        if (st.result_hash != expected_hash_[i]) {
          pass->failed_queries += st.queries.size();
          if (hash_failures_++ == 0) {
            ctx_->report->failures.push_back(
                "follow-file: sequence " + std::to_string(i) +
                " decoded results differ from the in-memory oracle");
          }
        }
        for (const scout::FileQueryStats& q : st.queries) {
          pass->wall_response_us.push_back(
              static_cast<double>(q.wall_response_us));
          ++pass->queries;
          if (q.outcome != scout::StatusCode::kOk) ++pass->degraded_queries;
        }
        AddFile(st, &fp);
        if (first_run) AddFirstRun(st, executor.cache());
      }
      const double seconds = sw.ElapsedSeconds();
      if (first_run && chunk + 1 == chunks) {
        first_.reads = static_cast<double>(store_->reads() - reads);
        first_.failed_reads =
            static_cast<double>(store_->failed_reads() - failed_reads);
      }
      return ChunkResult{fp.h, seconds};
    });
    // The probe must not outlive what it points at.
    probe_.cache = nullptr;
    return pass;
  }

  void AddFirstRun(const FileSequenceStats& st,
                   const scout::PrefetchCache& cache) {
    first_.queries += static_cast<double>(st.queries.size());
    first_.pages += static_cast<double>(st.TotalPagesTotal());
    first_.hits += static_cast<double>(st.TotalPagesHit());
    first_.planned += static_cast<double>(st.TotalPrefetchPlanned());
    first_.demand += static_cast<double>(st.TotalDemandReads());
    first_.late_hit_waits += static_cast<double>(st.TotalLateHitWaits());
    // The cache is cleared when the next sequence starts, so this is the
    // sequence's own count.
    first_.evictions += static_cast<double>(cache.evictions());
    first_.end_pages_max = std::max(first_.end_pages_max, cache.NumPages());
    constexpr size_t kReplayReads = 256;
    for (const auto* order : {&st.demand_order, &st.prefetch_order}) {
      for (const scout::PageId p : *order) {
        if (first_.replay.size() < kReplayReads) first_.replay.push_back(p);
      }
    }
  }

  /// Mean ReadPage service time of the first sequences' demand and
  /// prefetch reads, replayed through a freshly opened store.
  double ReplayReadUs() {
    auto opened = FilePageStore::Open(pagefile_, StoreOptions());
    if (!opened.ok()) {
      ctx_->report->failures.push_back("cannot reopen page file: " +
                                       opened.status().message());
      return 0.0;
    }
    const std::unique_ptr<FilePageStore> fresh = std::move(opened).value();
    scout::Page page;
    int64_t total_ns = 0;
    for (const scout::PageId id : first_.replay) {
      const int64_t t0 = NowNs();
      const scout::Status st = fresh->ReadPage(id, &page);
      total_ns += NowNs() - t0;
      if (!st.ok()) {
        ctx_->report->failures.push_back("replayed read failed: " +
                                         st.message());
        return 0.0;
      }
    }
    return Ratio(static_cast<double>(total_ns) / 1e3,
                 static_cast<double>(first_.replay.size()));
  }

  Context* ctx_;
  std::string pagefile_;
  const MicrobenchSpec& spec_;
  std::vector<GuidedSequence> pool_;
  std::unique_ptr<FilePageStore> store_;
  std::vector<uint64_t> expected_hash_;
  size_t hash_failures_ = 0;
  PrefetchProbe probe_;
  FirstRun first_;
};

// =====================================================================
// vis-sim: vis-high-quality sequences on the private simulated disk.
// =====================================================================
class VisSim {
 public:
  explicit VisSim(Context* ctx)
      : ctx_(ctx), spec_(Spec("vis-high-quality")) {}

  bool Run() {
    const Setup& s = ctx_->setup;
    pool_ = MakePool(s.dataset, spec_, kVisSequences, &ctx_->rng);
    cfg_ = scout::ExecutorConfigFor(spec_, s.rtree->store());

    // The no-prefetch denominator runs outside the timed passes.
    scout::NoPrefetcher none;
    QueryExecutor base(s.rtree.get(), &none, cfg_);
    double base_total = 0;
    for (const GuidedSequence& g : pool_) {
      base_total +=
          static_cast<double>(base.RunSequence(g.queries).TotalResponseUs());
    }

    const Pass untraced = RunPass(false);
    ctx_->Count(untraced, "vis-sim");
    EndToEnd e;
    e.setup_s = Median(s.total_s);
    e.sim_speedup = Ratio(base_total, sim_.total_response_us);
    e.hit_rate_pct = sim_.HitRatePct();
    e.sim_response_us = &sim_.response_us;
    AddEndToEnd(e, untraced, ctx_->report);
    ctx_->Fact("pool_sequences", static_cast<double>(pool_.size()));
    ctx_->Fact("cache_capacity_pages",
               static_cast<double>(cfg_.cache_bytes / scout::kPageBytes));
    ctx_->Fact("cache_peak_pages", static_cast<double>(peak_pages_));
    ctx_->Fact("timed_s", untraced.seconds);
    if (!ctx_->options.trace) return true;

    const Pass traced = RunPass(true);
    ctx_->Count(traced, "vis-sim traced");
    ctx_->FinishTraced(untraced, traced, probe_);
    sim_.AddLayers(&ctx_->layers);
    return true;
  }

 private:
  Pass RunPass(bool traced) {
    const Setup& s = ctx_->setup;
    probe_ = PrefetchProbe{};
    sim_ = SimTotals{};
    TracingIndex traced_index(s.rtree.get());
    const scout::SpatialIndex* index =
        traced ? static_cast<const scout::SpatialIndex*>(&traced_index)
               : s.rtree.get();
    std::unique_ptr<scout::Prefetcher> prefetcher =
        std::make_unique<scout::ScoutPrefetcher>(scout::ScoutConfig{});
    if (traced) {
      prefetcher =
          std::make_unique<TracingPrefetcher>(std::move(prefetcher), &probe_);
    }
    QueryExecutor executor(index, prefetcher.get(), cfg_);
    probe_.cache = &executor.cache();
    QueryExecutor::PreparedQuery prep;
    const size_t chunks = ChunkCount(pool_.size(), kVisChunk);

    Pass pass = TimedPass(chunks, ctx_->PassSeconds(), traced,
                          [&](size_t chunk, bool first_run, Pass* pass) {
      Fingerprint fp;
      const Stopwatch sw;
      const size_t end = std::min(pool_.size(), (chunk + 1) * kVisChunk);
      for (size_t k = chunk * kVisChunk; k < end; ++k) {
        const GuidedSequence& g = pool_[k];
        SequenceRunStats st;
        st.queries.reserve(g.queries.size());
        executor.BeginSequence();
        for (size_t i = 0; i < g.queries.size(); ++i) {
          const ScopedContext context(0, static_cast<uint32_t>(i));
          // The wall response is Prepare, which produces the result.
          // ExecuteQuery's graph build fans out over threads per query,
          // so timing it per query would make the p99 track the host's
          // load; its cost shows in queries_per_s and the graph layer.
          const int64_t t0 = NowNs();
          {
            ScopedSpan span("engine.Prepare");
            QueryExecutor::Prepare(*index, g.queries[i], &prep);
            span.set_items(prep.objects.size());
          }
          pass->wall_response_us.push_back(
              static_cast<double>(NowNs() - t0) / 1e3);
          {
            ScopedSpan span("engine.ExecuteQuery");
            st.queries.push_back(executor.ExecuteQuery(g.queries[i], prep));
          }
          peak_pages_ = std::max(peak_pages_, executor.cache().NumPages());
          ++pass->queries;
          if (st.queries.back().outcome != scout::StatusCode::kOk) {
            ++pass->degraded_queries;
          }
        }
        AddSim(st, &fp);
        if (first_run) sim_.Add(st);
      }
      return ChunkResult{fp.h, sw.ElapsedSeconds()};
    });
    // The probe must not outlive what it points at.
    probe_.cache = nullptr;
    return pass;
  }

  Context* ctx_;
  const MicrobenchSpec& spec_;
  ExecutorConfig cfg_;
  std::vector<GuidedSequence> pool_;
  PrefetchProbe probe_;
  SimTotals sim_;  ///< First run over the pool in the last pass.
  size_t peak_pages_ = 0;
};

// =====================================================================
// shared-n8 / shared-n8-storm: 8 model-building sessions over one shared
// cache and the 4-channel shared disk queue (SharedServingConfig{}),
// through MultiClientEngine::Run. The pool is a list of engine seeds.
// =====================================================================
class Shared {
 public:
  Shared(Context* ctx, bool storm)
      : ctx_(ctx),
        spec_(Spec("model-building")),
        schedule_(StormConfig()),
        workers_(std::max<uint32_t>(
            1, std::min(kSharedWorkers, std::thread::hardware_concurrency()))) {
    cfg_ = scout::ExecutorConfigFor(spec_, ctx_->setup.rtree->store());
    cfg_.serving = scout::SharedServingConfig{};
    if (storm) {
      cfg_.fault_schedule = &schedule_;
      cfg_.fault_policy.shed_prefetch_on_retry = true;
    }
  }

  bool Run() {
    const Setup& s = ctx_->setup;
    for (size_t e = 0; e < kSharedEngines; ++e) {
      seeds_.push_back(ctx_->rng.NextUint64());
    }

    // The contended denominator, outside the timed passes: the same
    // sessions without prefetching under an identical SharedServingConfig,
    // so through the same shared disk queue.
    std::vector<SimMicros> none(seeds_.size());
    ParallelFor(seeds_.size(), [&](size_t e) {
      none[e] = scout::RunSharedCacheExperiment(
                    s.dataset, *s.rtree,
                    [] { return std::make_unique<scout::NoPrefetcher>(); },
                    scout::QueryConfigFor(spec_), cfg_, kSessions, seeds_[e],
                    /*num_workers=*/1)
                    .combined.total_response_us;
    });
    double none_total = 0;
    for (const SimMicros t : none) none_total += static_cast<double>(t);

    const Pass untraced = RunPass(false);
    ctx_->Count(untraced, "shared");
    for (size_t e = 0; e < one_worker_.size(); ++e) {
      if (one_worker_[e] != first_engine_fps_[e].first) {
        ctx_->report->failed += first_engine_fps_[e].second;
        ctx_->report->failures.push_back(
            "shared: engine " + std::to_string(e) +
            " differs between 1 worker and " + std::to_string(workers_));
      }
    }
    EndToEnd e;
    e.setup_s = Median(s.total_s);
    e.sim_speedup = Ratio(none_total, first_.sim.total_response_us);
    e.hit_rate_pct = first_.sim.HitRatePct();
    e.sim_response_us = &first_.sim.response_us;
    AddEndToEnd(e, untraced, ctx_->report);
    ctx_->Fact("engines", static_cast<double>(seeds_.size()));
    ctx_->Fact("sessions_per_engine", kSessions);
    ctx_->Fact("workers", workers_);
    ctx_->Fact("cache_capacity_pages",
               static_cast<double>(
                   MultiClientEngine::ScaledSharedCacheBytes(cfg_, kSessions) /
                   scout::kPageBytes));
    ctx_->Fact("cache_pages_at_run_end_max",
               static_cast<double>(first_.end_pages_max));
    ctx_->Fact("cache_evictions", first_.evictions);
    ctx_->Fact("sim_speedup_uncontended",
               Ratio(first_.private_baseline_us, first_.sim.total_response_us));
    ctx_->Fact("timed_s", untraced.seconds);
    if (!ctx_->options.trace) return true;

    const Pass traced = RunPass(true);
    ctx_->Count(traced, "shared traced");
    ctx_->FinishTraced(untraced, traced, probe_);
    Layers& l = ctx_->layers;
    first_.sim.AddLayers(&l);
    const double q = first_.sim.queries;
    l["storage.cache.evictions"] = first_.evictions;
    l["storage.cache.cross_hit_share_pct"] =
        100.0 * Ratio(first_.hits_cross, first_.hits_own + first_.hits_cross);
    l["storage.shared_disk.wait_us"] = Ratio(first_.disk_wait_us, q);
    l["storage.shared_disk.service_us"] = Ratio(first_.disk_service_us, q);
    l["storage.shared_disk.requests"] = first_.disk_requests;
    l["storage.shared_disk.reordered_pages"] = first_.disk_reordered;
    l["storage.shared_disk.busy_pct"] =
        100.0 * Ratio(first_.disk_service_us, first_.channel_time_us);
    return true;
  }

 private:
  /// Results of the first run over the pool in the last pass.
  struct FirstRun {
    SimTotals sim;
    double private_baseline_us = 0, evictions = 0, hits_own = 0,
           hits_cross = 0, disk_wait_us = 0, disk_service_us = 0,
           disk_requests = 0, disk_reordered = 0;
    /// Channels x simulated makespan, summed over engines: the disk
    /// time available, against which busy_pct is taken.
    double channel_time_us = 0;
    size_t end_pages_max = 0;
  };

  /// The baseline recorder's fault storm.
  static scout::FaultConfig StormConfig() {
    scout::FaultConfig storm;
    storm.seed = 0xdecafbad;
    storm.read_failure_prob = 0.08;
    storm.read_failure_burst_us = 4000;
    storm.channel_outage_prob = 0.25;
    storm.channel_outage_period_us = 200000;
    storm.channel_outage_us = 30000;
    storm.latency_spike_prob = 0.05;
    storm.latency_spike_multiplier = 6.0;
    return storm;
  }

  void AddFirstRun(const MultiClientOutcome& o, size_t end_pages) {
    SimMicros makespan = 0;
    for (const SequenceRunStats& st : o.runs) {
      first_.sim.Add(st);
      SimMicros end = 0;
      for (const QueryRunStats& q : st.queries) {
        end += q.response_us + q.window_us;
      }
      makespan = std::max(makespan, end);
    }
    for (const SequenceRunStats& st : o.baselines) {
      first_.private_baseline_us += static_cast<double>(st.TotalResponseUs());
    }
    first_.channel_time_us += static_cast<double>(cfg_.serving.disk_channels) *
                              static_cast<double>(makespan);
    for (const scout::CacheSessionStats& c : o.cache_stats) {
      first_.evictions += static_cast<double>(c.evictions_caused);
      first_.hits_own += static_cast<double>(c.hits_own);
      first_.hits_cross += static_cast<double>(c.hits_cross);
    }
    first_.disk_wait_us += static_cast<double>(o.disk_stats.wait_us);
    first_.disk_service_us += static_cast<double>(o.disk_stats.service_us);
    first_.disk_requests += static_cast<double>(o.disk_stats.requests);
    first_.disk_reordered += static_cast<double>(o.disk_stats.reordered_pages);
    first_.end_pages_max = std::max(first_.end_pages_max, end_pages);
  }

  Pass RunPass(bool traced) {
    const Setup& s = ctx_->setup;
    probe_ = PrefetchProbe{};
    first_ = FirstRun{};
    std::vector<int64_t> observe_starts;
    probe_.observe_starts = &observe_starts;
    TracingIndex traced_index(s.rtree.get());
    const scout::SpatialIndex& index =
        traced ? static_cast<const scout::SpatialIndex&>(traced_index)
               : *s.rtree;
    // Untraced too, the prefetcher is wrapped: its Observe entry times
    // are the only wall clock the engine's serial apply loop exposes.
    PrefetchProbe* probe = &probe_;
    const scout::PrefetcherFactory factory = [probe] {
      return std::make_unique<TracingPrefetcher>(
          std::make_unique<scout::ScoutPrefetcher>(scout::ScoutConfig{}),
          probe);
    };
    // Building an engine generates its sessions' sequences: input
    // generation, done before the timed pass.
    std::vector<std::unique_ptr<MultiClientEngine>> engines(seeds_.size());
    ParallelFor(seeds_.size(), [&](size_t e) {
      engines[e] = std::make_unique<MultiClientEngine>(
          s.dataset, index, factory, scout::QueryConfigFor(spec_), cfg_,
          kSessions, seeds_[e]);
    });
    if (!traced) {
      // The first chunk's engines on one worker, to compare with the
      // workload's worker count in the pass.
      one_worker_.clear();
      for (size_t e = 0; e < std::min(engines.size(), kSharedChunk); ++e) {
        Fingerprint fp;
        AddOutcome(engines[e]->Run(1), &fp);
        one_worker_.push_back(fp.h);
      }
      first_engine_fps_.clear();
    }
    const size_t chunks = ChunkCount(seeds_.size(), kSharedChunk);

    Pass pass = TimedPass(chunks, ctx_->PassSeconds(), traced,
                          [&](size_t chunk, bool first_run, Pass* pass) {
      Fingerprint fp;
      double seconds = 0;
      const size_t end = std::min(engines.size(), (chunk + 1) * kSharedChunk);
      for (size_t e = chunk * kSharedChunk; e < end; ++e) {
        MultiClientEngine* engine = engines[e].get();
        observe_starts.clear();
        probe_.cache = &engine->shared_cache();
        MultiClientOutcome outcome;
        const Stopwatch sw;
        {
          ScopedSpan span("engine.MultiClientEngine.Run");
          outcome = engine->Run(workers_);
        }
        seconds += sw.ElapsedSeconds();
        for (size_t i = 1; i < observe_starts.size(); ++i) {
          pass->wall_response_us.push_back(
              static_cast<double>(observe_starts[i] - observe_starts[i - 1]) /
              1e3);
        }
        const uint64_t queries = pass->queries;
        for (const SequenceRunStats& st : outcome.runs) {
          for (const QueryRunStats& q : st.queries) {
            ++pass->queries;
            if (q.outcome != scout::StatusCode::kOk) {
              ++pass->degraded_queries;
            }
          }
        }
        Fingerprint one;
        AddOutcome(outcome, &one);
        fp.Add(one.h);
        if (first_run) {
          if (!traced && e < one_worker_.size()) {
            first_engine_fps_.emplace_back(one.h, pass->queries - queries);
          }
          AddFirstRun(outcome, engine->shared_cache().NumPages());
        }
      }
      return ChunkResult{fp.h, seconds};
    });
    // The probe must not outlive what it points at.
    probe_.cache = nullptr;
    probe_.observe_starts = nullptr;
    return pass;
  }

  Context* ctx_;
  const MicrobenchSpec& spec_;
  const scout::FaultSchedule schedule_;
  const uint32_t workers_;
  ExecutorConfig cfg_;
  std::vector<uint64_t> seeds_;  ///< One engine (8 sessions) per seed.
  PrefetchProbe probe_;
  std::vector<uint64_t> one_worker_;
  /// Fingerprint and query count of the first chunk's engines.
  std::vector<std::pair<uint64_t, uint64_t>> first_engine_fps_;
  FirstRun first_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "follow-file", "vis-sim", "shared-n8", "shared-n8-storm"};
  return kNames;
}

bool RunWorkload(const Options& options, Report* report) {
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    report->failures.push_back("unknown workload " + options.workload);
    return false;
  }
  const bool file = options.workload == "follow-file";
  const std::string pagefile =
      file ? options.work_dir + "/follow-file-" +
                 std::to_string(options.seed) + ".pages"
           : "";

  Setup setup;
  std::string error;
  if (!RunSetup(pagefile, &setup, &error)) {
    report->failures.push_back(error);
    return false;
  }
  scout::Rng rng(options.seed);
  Context ctx{options, setup, rng, report, {}};
  ctx.Fact("dataset_objects",
           static_cast<double>(setup.dataset.objects.size()));
  ctx.Fact("dataset_pages",
           static_cast<double>(setup.rtree->store().NumPages()));
  ctx.layers["workload.generate_s"] = Median(setup.generate_s);
  ctx.layers["index.build_s"] = Median(setup.build_s);
  ctx.layers["storage.file.write_s"] = Median(setup.write_s);

  bool ok = false;
  if (file) {
    ok = FollowFile(&ctx, pagefile).Run();
    std::remove(pagefile.c_str());
  } else if (options.workload == "vis-sim") {
    ok = VisSim(&ctx).Run();
  } else {
    ok = Shared(&ctx, options.workload == "shared-n8-storm").Run();
  }
  if (ok && options.trace) AddLayers(ctx.layers, report);
  return ok;
}

}  // namespace scoutbench
