// The benchmark's workloads and the helpers they share.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "nn/config.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

namespace nn = sdd::nn;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured window of the serving phases
  bool traced = false;
  std::filesystem::path work;  // scratch space inside the checkout
};

// Set-ups per run; setup_s reports their median.
inline constexpr int kSetups = 5;

// The standard model shape every workload uses (d=64, 4 heads, 16 layers,
// d_ff=128, ctx 160), written out here rather than read from the
// environment so no setting outside the benchmark changes the work.
nn::ModelConfig standard_model();

// serve_chat and serve_prefill.
void run_serve_workload(const RunOptions& options, Report& report);
// pipeline.
void run_pipeline_workload(const RunOptions& options, Report& report);

// Wall-time bookkeeping of one measured pass for the traced report.
struct PassWall {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double seconds() const { return ns_to_s(end_ns - start_ns); }
};

// Reports <layer>.self_s for `layers` over the traced pass, the share of the
// untraced pass's busy time they account for (time with work in flight: the
// whole pass for the pipeline, the time any request is open when serving),
// and the tracing overhead (traced pass wall time against the untraced one).
void report_self_times(const Tracer& tracer, const PassWall& traced,
                       const PassWall& untraced, double untraced_busy_seconds,
                       const std::vector<std::string>& layers, Report& report);

// Compares `digest` with the digest an earlier run of the same binary, seed
// and (serving) --seconds left in the work directory, and stores it when
// there is none.
void check_digest(const RunOptions& options, const std::string& digest,
                  Report& report);

// Writes the trace of a traced run to the work directory.
void write_trace(const RunOptions& options, const Tracer& tracer, Report& report);

}  // namespace perfbench
