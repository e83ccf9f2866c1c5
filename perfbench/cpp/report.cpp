#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

}  // namespace

void Report::end_to_end(const std::string& name, double value,
                        const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
}

void Report::layer(const std::string& name, double value, const std::string& unit) {
  layer_.push_back({name, value, unit});
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::check(bool ok, const std::string& name, const std::string& detail) {
  if (ok) {
    passed_.push_back(name);
  } else {
    failures_.push_back(detail.empty() ? name : name + ": " + detail);
  }
}

void Report::count(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::print(bool traced, const Names& end_to_end, const Names& layers) {
  auto in_order = [](const std::vector<Metric>& measured, const Names& names,
                     std::vector<std::string>* missing) {
    std::vector<Metric> ordered;
    for (const auto& [name, unit] : names) {
      const auto it = std::find_if(measured.begin(), measured.end(),
                                   [&](const Metric& m) { return m.name == name; });
      if (it != measured.end()) {
        ordered.push_back(*it);
      } else {
        ordered.push_back({name, 0.0, unit});
        if (missing != nullptr) missing->push_back(name);
      }
    }
    return ordered;
  };
  std::vector<std::string> missing;
  end_to_end_ = in_order(end_to_end_, end_to_end, &missing);
  for (const std::string& name : missing) check(false, "metric_reported", name);
  if (traced) layer_ = in_order(layer_, layers, nullptr);

  for (const auto& [key, value] : info_) {
    std::fprintf(stderr, "%-36s %s\n", key.c_str(), value.c_str());
  }
  std::fprintf(stderr, "requests/items: attempted %lld, failed %lld\n",
               static_cast<long long>(attempted_), static_cast<long long>(failed_));
  print_metrics("end-to-end metrics:", end_to_end_);
  if (!layer_.empty()) print_metrics("per-layer metrics:", layer_);
  for (const std::string& name : passed_) {
    std::fprintf(stderr, "check passed: %s\n", name.c_str());
  }
  for (const std::string& failure : failures_) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }

  const std::vector<Metric>& shown = traced ? layer_ : end_to_end_;
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < shown.size(); ++i) {
    const double value = std::isfinite(shown[i].value) ? shown[i].value : 0.0;
    std::snprintf(number, sizeof(number), "%.17g", value);
    json += (i == 0 ? "\"" : ", \"") + shown[i].name + "\": {\"value\": " + number +
            ", \"unit\": \"" + shown[i].unit + "\"}";
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::clamp(rank, 1.0, 1e18)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
