#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace scoutbench {

struct ThreadBuffer {
  uint32_t thread = 0;
  uint64_t next_local = 0;
  std::vector<Span> spans;
  std::vector<uint64_t> open;  ///< Ids of the spans open on this thread.
};

namespace {

std::atomic<bool> g_enabled{false};

/// Owns every thread's buffer, so spans outlive the worker threads of
/// the engine's pools (which are created and joined per phase).
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Registry& GetRegistry() {
  static Registry registry;
  return registry;
}

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local uint32_t t_session = kNoId;
thread_local uint32_t t_query = kNoId;

ThreadBuffer* LocalBuffer() {
  if (t_buffer == nullptr) {
    Registry& r = GetRegistry();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = r.buffers.back().get();
    t_buffer->thread = static_cast<uint32_t>(r.buffers.size() - 1);
  }
  return t_buffer;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::Enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> Tracer::Drain() {
  Registry& r = GetRegistry();
  const std::lock_guard<std::mutex> lock(r.mu);
  std::vector<Span> out;
  for (const auto& b : r.buffers) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
    std::vector<Span>().swap(b->spans);
  }
  return out;
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!Tracer::Enabled()) return;
  buffer_ = LocalBuffer();
  Span s;
  s.name = name;
  s.id = (static_cast<uint64_t>(buffer_->thread) + 1) << 40 |
         ++buffer_->next_local;
  s.parent = buffer_->open.empty() ? 0 : buffer_->open.back();
  s.thread = buffer_->thread;
  s.session = t_session;
  s.query = t_query;
  buffer_->open.push_back(s.id);
  slot_ = buffer_->spans.size();
  s.start_ns = NowNs();
  buffer_->spans.push_back(s);
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  buffer_->spans[slot_].end_ns = NowNs();
  buffer_->open.pop_back();
}

void ScopedSpan::set_items(size_t items) {
  if (buffer_ != nullptr) {
    buffer_->spans[slot_].items = static_cast<uint32_t>(items);
  }
}

ScopedContext::ScopedContext(uint32_t session, uint32_t query)
    : saved_session_(t_session), saved_query_(t_query) {
  t_session = session;
  t_query = query;
}

ScopedContext::~ScopedContext() {
  t_session = saved_session_;
  t_query = saved_query_;
}

std::vector<int64_t> SelfTimesNs(std::span<const Span> spans) {
  std::vector<int64_t> self(spans.size());
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
    index_of.emplace(spans[i].id, i);
  }
  struct Child {
    size_t parent;
    int64_t start;
    int64_t end;
  };
  std::vector<Child> children;
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index_of.find(s.parent);
    if (it == index_of.end()) continue;
    const Span& p = spans[it->second];
    // Only the part of the child inside its parent's interval counts.
    const int64_t start = std::max(s.start_ns, p.start_ns);
    const int64_t end = std::min(s.end_ns, p.end_ns);
    if (end > start) children.push_back({it->second, start, end});
  }
  std::sort(children.begin(), children.end(),
            [](const Child& a, const Child& b) {
              return a.parent != b.parent ? a.parent < b.parent
                                          : a.start < b.start;
            });
  for (size_t i = 0; i < children.size();) {
    const size_t parent = children[i].parent;
    int64_t covered = 0;
    int64_t run_start = children[i].start;
    int64_t run_end = children[i].end;
    for (; i < children.size() && children[i].parent == parent; ++i) {
      if (children[i].start > run_end) {
        covered += run_end - run_start;
        run_start = children[i].start;
      }
      run_end = std::max(run_end, children[i].end);
    }
    covered += run_end - run_start;
    self[parent] -= covered;
  }
  return self;
}

void Accumulate(std::span<const Span> spans, LayerTotals* totals) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTotal& t = (*totals)[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
    t.items += spans[i].items;
  }
}

bool WriteChromeTrace(const std::string& path, std::span<const Span> spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i == 0 || spans[i].start_ns < origin) origin = spans[i].start_ns;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"session\":%lld,\"query\":%lld,"
                 "\"items\":%u}}\n",
                 i == 0 ? "" : ",", s.name, s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 s.session == kNoId ? -1LL : static_cast<long long>(s.session),
                 s.query == kNoId ? -1LL : static_cast<long long>(s.query),
                 s.items);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace scoutbench
