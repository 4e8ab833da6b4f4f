#pragma once

// In-memory span tracing for the benchmark. Spans are recorded only
// around calls the benchmark itself makes or intercepts (see
// decorators.h), kept per thread without locking, drained between
// rounds and written out once as Chrome trace-event JSON.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace scoutbench {

inline constexpr uint32_t kNoId = 0xffffffffu;

/// steady_clock now, in nanoseconds: the clock of every span.
int64_t NowNs();

/// One timed call across a layer boundary.
struct Span {
  const char* name = nullptr;  ///< String literal naming the call.
  uint64_t id = 0;             ///< Unique and non-zero.
  uint64_t parent = 0;         ///< Enclosing span on this thread; 0 = none.
  int64_t start_ns = 0;        ///< steady_clock.
  int64_t end_ns = 0;
  uint32_t thread = 0;         ///< Recording thread (registration order).
  uint32_t session = kNoId;    ///< Client session, when known.
  uint32_t query = kNoId;      ///< Query of the session, when known.
  uint32_t items = 0;          ///< Pages or objects the call handled.
};

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once;
/// grandchildren are already inside their parent). result[i] belongs to
/// spans[i]. Spans whose parent is not in `spans` are roots.
std::vector<int64_t> SelfTimesNs(std::span<const Span> spans);

/// Process-wide switch and collector. Recording is off by default; with
/// it off a ScopedSpan costs one relaxed load.
class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool Enabled();
  /// Moves every thread's recorded spans out. No span may be open on any
  /// thread (callers drain between rounds, after worker pools joined).
  static std::vector<Span> Drain();
};

/// Times the enclosing scope as a span named `name` (a string literal),
/// nested under the innermost span open on this thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(size_t items);

 private:
  struct ThreadBuffer* buffer_ = nullptr;
  size_t slot_ = 0;
};

/// Sets the (session, query) that spans opened on this thread carry, for
/// the lifetime of the scope; the previous context comes back after it.
class ScopedContext {
 public:
  ScopedContext(uint32_t session, uint32_t query);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  uint32_t saved_session_;
  uint32_t saved_query_;
};

/// Per-name totals over any number of drained batches of spans.
struct LayerTotal {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  uint64_t items = 0;
};
using LayerTotals = std::map<std::string, LayerTotal>;

void Accumulate(std::span<const Span> spans, LayerTotals* totals);

/// Writes `spans` as Chrome trace-event JSON ("X" events, microsecond
/// timestamps relative to the first span). Returns false on I/O error.
bool WriteChromeTrace(const std::string& path, std::span<const Span> spans);

}  // namespace scoutbench
