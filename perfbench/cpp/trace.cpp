#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kProcessStart)
      .count();
}

std::int64_t Tracer::open(const std::string& name, const std::string& layer,
                          std::int64_t parent, std::int64_t request) {
  if (!enabled_) return -1;
  const std::int64_t start = now_ns();
  const std::lock_guard<std::mutex> lock{mutex_};
  spans_.push_back(Span{name, layer, start, -1, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::close(std::int64_t id) {
  if (!enabled_ || id < 0) return;
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock{mutex_};
  spans_.at(static_cast<std::size_t>(id)).end_ns = end;
}

std::int64_t Tracer::add(const std::string& name, const std::string& layer,
                         std::int64_t start_ns, std::int64_t end_ns,
                         std::int64_t parent, std::int64_t request) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock{mutex_};
  spans_.push_back(Span{name, layer, start_ns, std::max(start_ns, end_ns), parent,
                        request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return spans_.size();
}

std::map<std::string, double> Tracer::self_seconds(std::int64_t from_ns,
                                                   std::int64_t to_ns) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  struct Event {
    std::int64_t at;
    bool opens;
    std::size_t span;
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t start = std::max(s.start_ns, from_ns);
    const std::int64_t end = std::min(s.end_ns < 0 ? to_ns : s.end_ns, to_ns);
    if (end <= start) continue;
    events.push_back({start, true, i});
    events.push_back({end, false, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    return !a.opens && b.opens;  // close before open at the same instant
  });

  // open_children[i] counts the open spans whose parent is span i.
  std::vector<std::int64_t> open_children(spans_.size(), 0);
  std::vector<std::size_t> open;  // currently open spans
  std::map<std::string, double> self;
  std::int64_t last = from_ns;
  for (const Event& event : events) {
    if (event.at > last && !open.empty()) {
      std::size_t leaves = 0;
      for (const std::size_t i : open) leaves += open_children[i] == 0 ? 1 : 0;
      const double share = ns_to_s(event.at - last) / static_cast<double>(leaves);
      for (const std::size_t i : open) {
        if (open_children[i] == 0 && !spans_[i].layer.empty()) {
          self[spans_[i].layer] += share;
        }
      }
    }
    last = event.at;
    const Span& span = spans_[event.span];
    const bool has_parent =
        span.parent >= 0 && static_cast<std::size_t>(span.parent) < spans_.size();
    if (event.opens) {
      open.push_back(event.span);
      if (has_parent) ++open_children[static_cast<std::size_t>(span.parent)];
    } else {
      open.erase(std::find(open.begin(), open.end(), event.span));
      if (has_parent) --open_children[static_cast<std::size_t>(span.parent)];
    }
  }
  return self;
}

void Tracer::write_json(const std::filesystem::path& path) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::ofstream out{path};
  if (!out) throw std::runtime_error("cannot write trace " + path.string());
  out << "{\"clock\": \"steady, microseconds since process start\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << json_escape(s.name)
        << "\", \"layer\": \"" << json_escape(s.layer)
        << "\", \"start_us\": " << s.start_ns / 1000
        << ", \"end_us\": " << s.end_ns / 1000 << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

}  // namespace perfbench
