#ifndef RESACC_OBS_TRACE_H_
#define RESACC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace resacc {

class JsonWriter;

// One completed (or still-open) span, as recorded in a thread's buffer.
// `parent` indexes the same vector (-1 for a root span); events appear in
// span-open order, so a parent always precedes its children.
struct TraceEvent {
  const char* name = "";          // static string passed to RESACC_SPAN
  std::int32_t parent = -1;
  double start_seconds = 0.0;     // steady-clock seconds since Trace epoch
  double duration_seconds = 0.0;  // 0 while the span is still open
};

// Process-wide switch plus per-thread span buffers.
//
// Tracing is off by default and the disabled cost of RESACC_SPAN is one
// relaxed atomic load — cheap enough to leave spans compiled into the
// solver phases, the walk engine, and the serve worker loop permanently.
// When enabled, a span open/close is two steady_clock reads and a push
// into a thread_local vector: no locks, no allocation after warm-up, no
// cross-thread traffic.
//
// Buffers are per-thread and drained by the same thread (the CLI pattern:
// enable, run the query on this thread, drain, write JSON). A thread that
// records spans nobody drains stops at kMaxThreadEvents and counts the
// overflow instead of growing without bound.
class Trace {
 public:
  // Per-thread buffer cap; beyond it new spans are dropped (and counted).
  static constexpr std::size_t kMaxThreadEvents = 1 << 16;

  static void Enable();
  static void Disable();
  static bool enabled();

  // Moves the calling thread's completed spans out and resets its buffer.
  // Call it outside any open span: spans still open when Drain runs are
  // abandoned (they keep duration 0 in the returned vector and their
  // SpanScope close becomes a no-op).
  static std::vector<TraceEvent> DrainThreadEvents();

  // Spans dropped on this thread since the last Drain (buffer overflow).
  static std::uint64_t DroppedThreadEvents();

  // Renders events as a JSON forest: an array of span objects
  //   {"name": ..., "start_seconds": ..., "duration_seconds": ...,
  //    "children": [...]}
  // ordered by span-open time. This is the `spans` payload of the
  // `resacc_cli --trace-json` schema (docs/OBSERVABILITY.md).
  static std::string ToJson(const std::vector<TraceEvent>& events);
  // The same array, written as the next value of `out`.
  static void WriteJson(const std::vector<TraceEvent>& events,
                        JsonWriter& out);
};

// RAII span: records an event on construction (when tracing is enabled)
// and fills in its duration on destruction. Use through RESACC_SPAN.
class SpanScope {
 public:
  explicit SpanScope(const char* name);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int32_t index_ = -1;   // -1: tracing disabled or buffer full
  std::uint32_t epoch_ = 0;   // guards against a Drain between open/close
};

#define RESACC_SPAN_CONCAT_INNER(a, b) a##b
#define RESACC_SPAN_CONCAT(a, b) RESACC_SPAN_CONCAT_INNER(a, b)

// Opens a span covering the rest of the enclosing scope. `name` must be a
// string literal (or otherwise outlive the trace buffer).
#define RESACC_SPAN(name) \
  ::resacc::SpanScope RESACC_SPAN_CONCAT(resacc_span_, __LINE__)(name)

}  // namespace resacc

#endif  // RESACC_OBS_TRACE_H_
