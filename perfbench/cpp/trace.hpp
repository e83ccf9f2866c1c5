// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its own calls into the repo's
// modules (no tracing inside src/). Each span has a name, the layer it
// charges, start and end on the process's steady clock, the span that caused
// it, and the request it belongs to. With tracing off every call is a branch
// and nothing is stored, so untraced runs measure the program alone.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Nanoseconds on the steady clock since the process started.
std::int64_t now_ns();
inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

struct Span {
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;   // -1 while open
  std::int64_t parent = -1;   // index of the causing span, -1 for none
  std::int64_t request = -1;  // request id, -1 outside requests
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_{enabled} {}

  bool enabled() const { return enabled_; }

  // Opens a span starting now; returns its id (-1 when tracing is off).
  std::int64_t open(const std::string& name, const std::string& layer,
                    std::int64_t parent = -1, std::int64_t request = -1);
  void close(std::int64_t id);
  // Records a finished span with explicit bounds.
  std::int64_t add(const std::string& name, const std::string& layer,
                   std::int64_t start_ns, std::int64_t end_ns,
                   std::int64_t parent = -1, std::int64_t request = -1);

  // Wall time in [from_ns, to_ns) charged to each layer. At every instant the
  // time goes to the innermost open spans (those with no open child), split
  // evenly when several run at once, as concurrent requests do. For
  // sequential work this is each span's duration minus its children's.
  // Instants covered by no span, or whose innermost span has an empty layer
  // (a grouping span, such as a serving phase between its requests), are
  // charged to nothing.
  std::map<std::string, double> self_seconds(std::int64_t from_ns,
                                             std::int64_t to_ns) const;

  std::size_t size() const;
  void write_json(const std::filesystem::path& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

// Opens a span for the current scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, const std::string& layer,
             std::int64_t parent = -1, std::int64_t request = -1)
      : tracer_{tracer}, id_{tracer.open(name, layer, parent, request)} {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
