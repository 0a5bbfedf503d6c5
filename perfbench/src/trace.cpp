#include "trace.hpp"

#include <cstdio>
#include <memory>

namespace perfbench {

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

void SpanLog::close(std::uint64_t id, const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t parent,
                    std::uint64_t key) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, start_ns, end_ns, id, parent, key, thread_});
}

void SpanLog::merge(SpanLog&& o) {
  for (const Span& s : o.spans_) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      continue;
    }
    spans_.push_back(s);
  }
  dropped_ += o.dropped_;
  o.spans_.clear();
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::fprintf(f.get(), "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"key\": %llu}}",
                 i ? ",\n" : "", s.name, s.thread, ns_to_us(s.start_ns),
                 ns_to_us(s.end_ns - s.start_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.key));
  }
  std::fprintf(f.get(), "\n], \"otherData\": {\"spans_dropped\": %llu}}\n",
               static_cast<unsigned long long>(dropped_));
  return std::ferror(f.get()) == 0;
}

}  // namespace perfbench
