#pragma once
// In-memory span recorder for the traced benchmark run. A span has a
// name, a start and end on the steady clock, the id of the span that
// caused it, and the thread that ran it. Spans stay in per-thread
// buffers until write_jsonl() dumps them at the end of the run. When
// recording is off, Span does nothing but read no clock.
//
// Parenting: a span's parent is the innermost open span on its own
// thread, or — for the first span on a pool thread — the current root
// span (set_root), so work fanned out to the pool still points at the
// pass that launched it.

#include <chrono>
#include <cstdint>
#include <filesystem>

namespace perfbench::trace {

/// Turns recording on or off (off by default). Not thread-safe: flip it
/// only while no spans are open.
void set_enabled(bool on);
bool enabled() noexcept;

/// Nanoseconds on the steady clock.
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII span. `name` must have static storage duration.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// 0 when recording is off.
  std::uint64_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t start_ = 0;
};

/// Makes `id` the parent of spans opened on threads with no open span.
void set_root(std::uint64_t id) noexcept;

/// Spans recorded so far, over all threads.
std::size_t span_count();

/// Writes every recorded span as one JSON object per line and clears
/// the buffers. Call with no span open.
void write_jsonl(const std::filesystem::path& path);

}  // namespace perfbench::trace
