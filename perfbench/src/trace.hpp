#pragma once
// In-memory spans for the traced run. Every span is recorded by the
// benchmark around a call into one layer's public functions; nothing in the
// program under test is instrumented. A span carries its name, start, end,
// the span that caused it, and the seed or deal it belongs to. Spans stay
// in memory (up to a fixed cap, beyond which they are only counted) and are
// written out as Chrome trace-event JSON when the run ends.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

inline double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

class SpanLog {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 17;

  explicit SpanLog(std::uint32_t thread = 0,
                   std::size_t capacity = kDefaultCapacity)
      : thread_(thread), capacity_(capacity) {}

  /// A fresh span id, unique across logs with distinct thread numbers;
  /// take it when the span opens so children can name it as parent.
  std::uint64_t open() { return (std::uint64_t{thread_} << 40) | ++seq_; }

  /// Records a finished span. `parent` = 0 marks a root span.
  void close(std::uint64_t id, const char* name, std::int64_t start_ns,
             std::int64_t end_ns, std::uint64_t parent, std::uint64_t key);

  /// Appends another log's spans (worker logs fold into one after a sweep).
  void merge(SpanLog&& o);

  std::size_t size() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  /// Writes Chrome trace-event JSON (chrome://tracing, Perfetto).
  /// Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t key;
    std::uint32_t thread;
  };

  std::uint32_t thread_;
  std::size_t capacity_;
  std::uint64_t seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench
