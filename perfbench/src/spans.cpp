#include "spans.h"

#include <cstdio>

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), start_(Clock::now()) {
  if (!tracer_.recording_) return;
  Span s;
  s.id = static_cast<std::uint32_t>(tracer_.spans_.size() + 1);
  s.parent =
      tracer_.open_.empty() ? 0 : tracer_.spans_[tracer_.open_.back()].id;
  s.iteration = tracer_.iteration_;
  s.name = name;
  s.start = seconds_between(tracer_.origin_, start_);
  span_ = tracer_.spans_.size();
  tracer_.spans_.push_back(std::move(s));
  tracer_.open_.push_back(span_);
}

double Tracer::Scope::end() {
  if (seconds_ >= 0.0) return seconds_;
  const auto stop = Clock::now();
  seconds_ = seconds_between(start_, stop);
  if (span_ != kNone) {
    tracer_.spans_[span_].end = seconds_between(tracer_.origin_, stop);
    // Scopes nest lexically, so the span closing is the innermost open one.
    if (!tracer_.open_.empty() && tracer_.open_.back() == span_) {
      tracer_.open_.pop_back();
    }
  }
  return seconds_;
}

bool Tracer::write_json(const std::string& path,
                        const std::string& run_id) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"run_id\": \"%s\", \"spans\": [\n", run_id.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %u, \"parent\": %u, \"iteration\": %u, "
                 "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                 s.id, s.parent, s.iteration, s.name.c_str(), s.start, s.end,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
