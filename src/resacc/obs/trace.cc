#include "resacc/obs/trace.h"

#include <atomic>
#include <chrono>
#include <utility>

#include "resacc/util/json.h"

namespace resacc {
namespace {

std::atomic<bool> g_trace_enabled{false};

// All spans share one steady epoch so start times from different threads
// are comparable within a process.
double SecondsSinceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

struct ThreadTraceBuffer {
  std::vector<TraceEvent> events;
  std::vector<std::int32_t> stack;  // indices of open spans
  std::uint64_t dropped = 0;
  std::uint32_t epoch = 0;  // bumped by Drain; stale SpanScopes no-op
};

ThreadTraceBuffer& Buffer() {
  thread_local ThreadTraceBuffer buffer;
  return buffer;
}

void WriteSpan(const std::vector<TraceEvent>& events,
               const std::vector<std::vector<std::int32_t>>& children,
               std::int32_t index, JsonWriter& out) {
  const TraceEvent& event = events[static_cast<std::size_t>(index)];
  out.BeginObject()
      .Field("name", event.name)
      .Field("start_seconds", event.start_seconds)
      .Field("duration_seconds", event.duration_seconds);
  const auto& kids = children[static_cast<std::size_t>(index)];
  if (!kids.empty()) {
    out.Key("children").BeginArray();
    for (const std::int32_t kid : kids) WriteSpan(events, children, kid, out);
    out.EndArray();
  }
  out.EndObject();
}

}  // namespace

void Trace::Enable() {
  SecondsSinceEpoch();  // pin the epoch before the first span
  g_trace_enabled.store(true, std::memory_order_relaxed);
}

void Trace::Disable() {
  g_trace_enabled.store(false, std::memory_order_relaxed);
}

bool Trace::enabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

std::vector<TraceEvent> Trace::DrainThreadEvents() {
  ThreadTraceBuffer& buffer = Buffer();
  std::vector<TraceEvent> events = std::move(buffer.events);
  buffer.events.clear();
  buffer.stack.clear();
  buffer.dropped = 0;
  ++buffer.epoch;
  return events;
}

std::uint64_t Trace::DroppedThreadEvents() { return Buffer().dropped; }

std::string Trace::ToJson(const std::vector<TraceEvent>& events) {
  JsonWriter out;
  WriteJson(events, out);
  return out.str();
}

void Trace::WriteJson(const std::vector<TraceEvent>& events,
                      JsonWriter& out) {
  std::vector<std::vector<std::int32_t>> children(events.size());
  std::vector<std::int32_t> roots;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::int32_t parent = events[i].parent;
    if (parent < 0) {
      roots.push_back(static_cast<std::int32_t>(i));
    } else {
      children[static_cast<std::size_t>(parent)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
  out.BeginArray();
  for (const std::int32_t root : roots) WriteSpan(events, children, root, out);
  out.EndArray();
}

SpanScope::SpanScope(const char* name) {
  if (!Trace::enabled()) return;
  ThreadTraceBuffer& buffer = Buffer();
  if (buffer.events.size() >= Trace::kMaxThreadEvents) {
    ++buffer.dropped;
    return;
  }
  TraceEvent event;
  event.name = name;
  event.parent = buffer.stack.empty() ? -1 : buffer.stack.back();
  event.start_seconds = SecondsSinceEpoch();
  index_ = static_cast<std::int32_t>(buffer.events.size());
  epoch_ = buffer.epoch;
  buffer.events.push_back(event);
  buffer.stack.push_back(index_);
}

SpanScope::~SpanScope() {
  if (index_ < 0) return;
  ThreadTraceBuffer& buffer = Buffer();
  if (buffer.epoch != epoch_) return;  // buffer drained while we were open
  TraceEvent& event = buffer.events[static_cast<std::size_t>(index_)];
  event.duration_seconds = SecondsSinceEpoch() - event.start_seconds;
  if (!buffer.stack.empty() && buffer.stack.back() == index_) {
    buffer.stack.pop_back();
  }
}

}  // namespace resacc
