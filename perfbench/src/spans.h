// Span recorder for the benchmark's traced run.
//
// Every layer call the benchmark makes is wrapped in a Scope, which always
// times the call (the end-to-end metrics need setup/sim seconds in every
// run) and, while recording is on, also keeps a span: name, start, end and
// the enclosing span. Spans stay in memory and are written once, when the
// run ends, as one JSON document carrying the run's id.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = no enclosing span
    std::uint32_t iteration = 0;
    std::string name;
    double start = 0.0;  ///< seconds since the tracer was created
    double end = -1.0;   ///< < 0 while open
  };

  /// Times one call; records a span when the tracer is recording.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Closes the scope (later calls return the same value) and returns
    /// its duration in seconds.
    double end();

   private:
    Tracer& tracer_;
    Clock::time_point start_;
    std::size_t span_ = kNone;
    double seconds_ = -1.0;
    static constexpr std::size_t kNone = ~std::size_t{0};
  };

  Tracer() : origin_(Clock::now()) {}

  /// Recording applies to scopes opened afterwards; `iteration` tags them.
  void set_recording(bool on, std::uint32_t iteration) {
    recording_ = on;
    iteration_ = iteration;
  }

  /// Writes {"run_id": ..., "spans": [...]}; false if the file cannot be
  /// written.
  bool write_json(const std::string& path, const std::string& run_id) const;

 private:
  Clock::time_point origin_;
  bool recording_ = false;
  std::uint32_t iteration_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indexes of open recorded spans
};

}  // namespace perfbench
