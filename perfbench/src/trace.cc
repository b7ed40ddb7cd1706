#include "trace.h"

#include <cstdio>
#include <memory>
#include <unordered_map>

namespace perfbench {

uint64_t Tracer::Log::Add(const char* name, Clock::time_point start,
                          Clock::time_point end, uint64_t parent,
                          uint64_t request) {
  Span s;
  s.id = prefix_ | next_++;
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   start - tracer_->origin_)
                   .count();
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 end - tracer_->origin_)
                 .count();
  spans_.push_back(s);
  return s.id;
}

Tracer::Log* Tracer::NewLog() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t prefix = static_cast<uint64_t>(logs_.size() + 1) << 40;
  logs_.push_back(std::unique_ptr<Log>(new Log(this, prefix)));
  return logs_.back().get();
}

std::vector<Span> Tracer::Merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& log : logs_) {
    all.insert(all.end(), log->spans().begin(), log->spans().end());
  }
  return all;
}

std::map<uint64_t, int64_t> Tracer::SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.duration_ns();
  }
  std::map<uint64_t, int64_t> self;
  for (const Span& s : spans) {
    auto it = child_ns.find(s.id);
    self[s.id] = s.duration_ns() - (it == child_ns.end() ? 0 : it->second);
  }
  return self;
}

bool Tracer::WriteJsonLines(const std::vector<Span>& spans,
                            const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
