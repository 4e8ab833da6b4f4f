#pragma once

// Decorators over the two virtual seams the executor calls through: the
// SpatialIndex and the Prefetcher (plus the PrefetchIo the executor hands
// to RunPrefetch). Each forwards every virtual unchanged, so a wrapped run
// is bit-identical to a bare one, and times the calls that do work as
// spans. Accessors (name, store, last_observe, SupportsPreparedObserve,
// SupportsNeighborhood, WindowOpen) are forwarded untimed.

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "index/spatial_index.h"
#include "prefetch/prefetcher.h"
#include "storage/cache.h"
#include "trace.h"

namespace scoutbench {

/// Span-timed SpatialIndex. Borrows the wrapped index.
class TracingIndex : public scout::SpatialIndex {
 public:
  explicit TracingIndex(const scout::SpatialIndex* inner) : inner_(inner) {}

  std::string_view name() const override { return inner_->name(); }
  const scout::PageStore& store() const override { return inner_->store(); }

  void QueryPages(const scout::Region& region,
                  std::vector<scout::PageId>* out) const override {
    ScopedSpan span("index.QueryPages");
    const size_t before = out->size();
    inner_->QueryPages(region, out);
    span.set_items(out->size() - before);
  }

  bool SupportsNeighborhood() const override {
    return inner_->SupportsNeighborhood();
  }

  const std::vector<scout::PageId>& PageNeighbors(
      scout::PageId page) const override {
    ScopedSpan span("index.PageNeighbors");
    return inner_->PageNeighbors(page);
  }

  void QueryPagesOrdered(const scout::Region& region, const scout::Vec3& start,
                         std::vector<scout::PageId>* out) const override {
    ScopedSpan span("index.QueryPagesOrdered");
    const size_t before = out->size();
    inner_->QueryPagesOrdered(region, start, out);
    span.set_items(out->size() - before);
  }

  scout::PageId NearestPage(const scout::Vec3& p) const override {
    ScopedSpan span("index.NearestPage");
    return inner_->NearestPage(p);
  }

 private:
  const scout::SpatialIndex* inner_;
};

/// Span-timed PrefetchIo around the one the executor hands to RunPrefetch.
class TracingPrefetchIo : public scout::PrefetchIo {
 public:
  explicit TracingPrefetchIo(scout::PrefetchIo* inner) : inner_(inner) {}

  void QueryPages(const scout::Region& region,
                  std::vector<scout::PageId>* out) override {
    ScopedSpan span("prefetch.io.QueryPages");
    const size_t before = out->size();
    inner_->QueryPages(region, out);
    span.set_items(out->size() - before);
  }

  bool IsCached(scout::PageId page) const override {
    ScopedSpan span("storage.cache.IsCached");
    return inner_->IsCached(page);
  }

  bool FetchPage(scout::PageId page) override {
    ScopedSpan span("prefetch.io.FetchPage");
    return inner_->FetchPage(page);
  }

  bool WindowOpen() const override { return inner_->WindowOpen(); }

 private:
  scout::PrefetchIo* inner_;
};

/// What the prefetcher decorators of one run report beyond spans. One
/// probe is shared by every session's decorator: Observe and RunPrefetch
/// always run on one thread (the executor's, or the engine's serial apply
/// loop), so plain fields suffice.
struct PrefetchProbe {
  /// Cache whose size is sampled for the peak (may stay null).
  const scout::PrefetchCache* cache = nullptr;
  /// When set, the wall time (ns) of every Observe entry is appended,
  /// tracing or not: the multi-client engine's per-step wall time is
  /// the interval between consecutive entries.
  std::vector<int64_t>* observe_starts = nullptr;

  // Filled only while tracing is on.
  size_t peak_cache_pages = 0;
  uint64_t observes = 0;
  int64_t graph_build_us = 0;         ///< Sum of wall_graph_build_us.
  int64_t inline_graph_build_us = 0;  ///< The part built inside Observe.
  uint64_t graph_vertices = 0;
  uint64_t graph_edges = 0;

  void SampleCache() {
    if (cache != nullptr && cache->NumPages() > peak_cache_pages) {
      peak_cache_pages = cache->NumPages();
    }
  }
};

/// Span-timed Prefetcher. Owns the wrapped prefetcher, so it can stand in
/// for it in a PrefetcherFactory.
class TracingPrefetcher : public scout::Prefetcher {
 public:
  TracingPrefetcher(std::unique_ptr<scout::Prefetcher> inner,
                    PrefetchProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string_view name() const override { return inner_->name(); }

  void BindSession(uint32_t session_id) override {
    session_ = session_id;
    inner_->BindSession(session_id);
  }

  void BeginSequence() override {
    queries_ = 0;
    prepared_ = 0;
    const ScopedContext context(session_, kNoId);
    ScopedSpan span("prefetch.BeginSequence");
    inner_->BeginSequence();
  }

  scout::SimMicros Observe(const scout::QueryResultView& result) override {
    return TracedObserve(result, nullptr,
                         [&] { return inner_->Observe(result); });
  }

  scout::SimMicros Observe(const scout::QueryResultView& result,
                           scout::ObservePrep* prep) override {
    return TracedObserve(result, prep,
                         [&] { return inner_->Observe(result, prep); });
  }

  bool SupportsPreparedObserve() const override {
    return inner_->SupportsPreparedObserve();
  }

  void PrepareObserve(const scout::QueryResultView& result,
                      scout::ObservePrep* prep) const override {
    const ScopedContext context(session_, prepared_++);
    ScopedSpan span("prefetch.PrepareObserve");
    span.set_items(result.objects.size());
    inner_->PrepareObserve(result, prep);
  }

  void RunPrefetch(scout::PrefetchIo* io) override {
    const ScopedContext context(session_, queries_ - 1);
    if (!Tracer::Enabled()) {
      inner_->RunPrefetch(io);
      return;
    }
    {
      ScopedSpan span("prefetch.RunPrefetch");
      TracingPrefetchIo traced(io);
      inner_->RunPrefetch(&traced);
    }
    probe_->SampleCache();
  }

  const scout::ObserveBreakdown& last_observe() const override {
    return inner_->last_observe();
  }

 private:
  template <typename Forward>
  scout::SimMicros TracedObserve(const scout::QueryResultView& result,
                                 const scout::ObservePrep* prep,
                                 Forward&& forward) {
    if (probe_->observe_starts != nullptr) {
      probe_->observe_starts->push_back(NowNs());
    }
    const ScopedContext context(session_, queries_++);
    if (!Tracer::Enabled()) return forward();
    probe_->SampleCache();
    const bool inline_build = prep == nullptr || !prep->valid;
    scout::SimMicros cost = 0;
    {
      ScopedSpan span("prefetch.Observe");
      span.set_items(result.objects.size());
      cost = forward();
    }
    const scout::ObserveBreakdown& b = inner_->last_observe();
    ++probe_->observes;
    probe_->graph_build_us += b.wall_graph_build_us;
    if (inline_build) probe_->inline_graph_build_us += b.wall_graph_build_us;
    probe_->graph_vertices += b.graph_vertices;
    probe_->graph_edges += b.graph_edges;
    return cost;
  }

  std::unique_ptr<scout::Prefetcher> inner_;
  PrefetchProbe* probe_;
  uint32_t session_ = 0;
  uint32_t queries_ = 0;  ///< Observes since BeginSequence.
  /// PrepareObserves since BeginSequence. A session's chain runs on one
  /// worker at a time (MultiClientEngine::Run phase 1.5), so no atomic.
  mutable uint32_t prepared_ = 0;
};

}  // namespace scoutbench
