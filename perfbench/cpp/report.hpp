// Result collection for one benchmark run: metrics, named output checks,
// request counts, and the final report (a readable table on stderr and the
// one-line JSON result on stdout).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void end_to_end(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  void info(const std::string& key, const std::string& value);

  // Records a named output check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& name, const std::string& detail = "");
  bool correct() const { return failures_.empty(); }

  void count(std::int64_t attempted, std::int64_t failed);

  using Names = std::vector<std::pair<std::string, std::string>>;  // name, unit

  // Prints the table to stderr and, last on stdout, the JSON result with the
  // end-to-end metrics (traced == false) or the per-layer ones, in the order
  // of `end_to_end` / `layers`. A missing end-to-end metric fails the run; a
  // missing per-layer metric belongs to a layer the workload does not run
  // and reads 0.
  void print(bool traced, const Names& end_to_end, const Names& layers);

 private:
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layer_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> passed_;
  std::vector<std::string> failures_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

}  // namespace perfbench
