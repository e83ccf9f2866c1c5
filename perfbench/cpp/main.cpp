// Repository benchmark: entry point.
//
//   perfbench --workload <serve_chat|serve_prefill|pipeline> --seed N
//             --seconds S --trace <0|1> --work DIR
//
// Runs one workload (see perfbench/README.md) and prints a readable report
// on stderr and, as the last line of stdout, a JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics of an untraced pass; --trace 1 runs an untraced and then a traced
// pass and reports the per-layer metrics, the layers' self times, and the
// tracing overhead. Exits 1 when an output check fails, 2 on bad usage.
//
// `perfbench replica-worker ...` is the child-process entry point the
// router's cross-process replicas re-exec this binary with.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include <sched.h>

#include "data/vocab.hpp"
#include "serve/remote_replica.hpp"
#include "util/hash.hpp"
#include "util/signals.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

nn::ModelConfig standard_model() {
  nn::ModelConfig config;
  config.vocab_size = sdd::data::Vocab::instance().size();
  config.d_model = 64;
  config.n_heads = 4;
  config.n_layers = 16;
  config.d_ff = 128;
  config.max_seq_len = 160;
  config.rope_base = 10000.0F;
  config.rmsnorm_eps = 1e-5F;
  return config;
}

namespace {

// Every layer the traced runs charge time to.
// data and tensor are measured by set-up timing and op replays only: no call
// of the measured passes goes to them directly.
const std::vector<std::string> kLayers{"nn",    "train",  "core",   "eval",
                                       "serve", "router", "remote", "gen"};

// The metrics BENCHMARK.json names, in its order. Every workload reports all
// end-to-end metrics; a per-layer metric of a layer the workload does not
// run reads 0.
const std::vector<std::pair<std::string, std::string>> kEndToEnd{
    {"setup_s", "s"},         {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
    {"tokens_per_s", "tok/s"}, {"work_s", "s"}};

std::vector<std::pair<std::string, std::string>> layer_metrics() {
  std::vector<std::pair<std::string, std::string>> names{
      {"data.build_s", "s"},
      {"tensor.gemv_gflops", "GFLOP/s"},
      {"tensor.gemv_bytes_per_tok", "B"},
      {"tensor.gemm_gflops", "GFLOP/s"},
      {"nn.decode_step_us", "us"},
      {"nn.decode_span_us_per_tok", "us"},
      {"nn.rmsnorm_us", "us"},
      {"nn.attn_step_us", "us"},
      {"nn.mlp_step_us", "us"},
      {"nn.lm_head_us", "us"},
      {"nn.sample_us", "us"},
      {"nn.op_split_coverage_pct", "%"},
      {"nn.spec_tok_s", "tok/s"},
      {"nn.spec_accept_ratio", "ratio"},
      {"nn.spec_proposed", "count"},
      {"nn.spec_accepted", "count"},
      {"nn.plain_tok_s", "tok/s"},
      {"train.pretrain_step_ms", "ms"},
      {"train.sft_step_ms", "ms"},
      {"train.forward_ms", "ms"},
      {"train.backward_ms", "ms"},
      {"train.optim_ms", "ms"},
      {"core.pretrain_s", "s"},
      {"core.prune_s", "s"},
      {"core.distill_s", "s"},
      {"core.finetune_s", "s"},
      {"core.distill_ms_per_sample", "ms"},
      {"core.distill_accept_ratio", "ratio"},
      {"core.distill_accepted", "count"},
      {"core.distill_total", "count"},
      {"core.recovery_pct", "%"},
      {"eval.suite_s", "s"},
      {"eval.mc_ms_per_item", "ms"},
      {"eval.gen_ms_per_item", "ms"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.queue_ms_p99", "ms"},
      {"serve.decode_ms_per_tok_p50", "ms"},
      {"serve.peak_active", "count"},
      {"serve.rejected", "count"},
      {"serve.shed", "count"},
      {"serve.timed_out", "count"},
      {"serve.degraded", "count"},
      {"router.overhead_ms_p50", "ms"},
      {"router.overhead_ms_p99", "ms"},
      {"router.cheap_share", "ratio"},
      {"router.failovers", "count"},
      {"router.submit_us_p99", "us"},
      {"remote.restarts", "count"},
      {"remote.heartbeat_age_ms_max", "ms"},
      {"gen.late_ms_p99", "ms"},
  };
  for (const std::string& layer : kLayers) names.push_back({layer + ".self_s", "s"});
  names.push_back({"trace.self_coverage_pct", "%"});
  names.push_back({"trace.overhead_pct", "%"});
  names.push_back({"trace.spans", "count"});
  return names;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve_chat|serve_prefill|pipeline> --seed N --seconds S "
               "--trace <0|1> --work DIR\n",
               why);
  return 2;
}

std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw std::invalid_argument(std::string{"unexpected argument "} + argv[i]);
    }
    flags[argv[i] + 2] = argv[i + 1];
  }
  if ((argc - first) % 2 != 0) throw std::invalid_argument("flag without a value");
  return flags;
}

std::string flag(const std::map<std::string, std::string>& flags, const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) throw std::invalid_argument("missing --" + name);
  return it->second;
}

int cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
}

std::string load_average() {
  std::ifstream in{"/proc/loadavg"};
  std::string one, five, fifteen;
  in >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

// Hermetic environment: fault injection must be off, and no other SDD_*
// setting may change the work. The compute pool is pinned to `threads`.
// Replica workers inherit the result.
std::string make_hermetic(int threads) {
  std::vector<std::string> sdd_vars;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry{*env};
    if (entry.rfind("SDD_", 0) == 0) sdd_vars.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : sdd_vars) {
    if (name.find("FAULT") != std::string::npos) {
      return name + " is set; the benchmark refuses to run with fault injection";
    }
  }
  for (const std::string& name : sdd_vars) ::unsetenv(name.c_str());
  ::setenv("SDD_THREADS", std::to_string(threads).c_str(), 1);
  ::setenv("SDD_LOG_LEVEL", "warn", 1);
  return "";
}

// Identifies this build, so stored digests are only compared within one
// binary.
const std::string& binary_hash() {
  static const std::string hash = [] {
    std::ifstream in{"/proc/self/exe", std::ios::binary};
    const std::string bytes{std::istreambuf_iterator<char>{in},
                            std::istreambuf_iterator<char>{}};
    return sdd::hash_hex(sdd::xxh64(bytes));
  }();
  return hash;
}

}  // namespace

void report_self_times(const Tracer& tracer, const PassWall& traced,
                       const PassWall& untraced, double untraced_busy_seconds,
                       const std::vector<std::string>& layers, Report& report) {
  const auto self = tracer.self_seconds(traced.start_ns, traced.end_ns);
  double total = 0.0;
  for (const std::string& layer : layers) {
    const auto it = self.find(layer);
    const double seconds = it == self.end() ? 0.0 : it->second;
    report.layer(layer + ".self_s", seconds, "s");
    total += seconds;
  }
  report.layer("trace.self_coverage_pct", 100.0 * total / untraced_busy_seconds, "%");
  report.layer("trace.overhead_pct",
               100.0 * (traced.seconds() - untraced.seconds()) / untraced.seconds(), "%");
  report.layer("trace.spans", static_cast<double>(tracer.size()), "count");
}

void check_digest(const RunOptions& options, const std::string& digest, Report& report) {
  std::string key = options.workload + "-" + std::to_string(options.seed);
  if (options.workload != "pipeline") {
    // A serving pass sends more requests the longer it runs.
    char seconds[32];
    std::snprintf(seconds, sizeof(seconds), "-%gs", options.seconds);
    key += seconds;
  }
  const std::filesystem::path path =
      options.work / ("digest-" + key + "-" + binary_hash() + ".txt");
  std::ifstream in{path};
  if (in) {
    std::stringstream stored;
    stored << in.rdbuf();
    report.check(stored.str() == digest, "digest_repeatable",
                 "differs from " + path.string());
    return;
  }
  std::ofstream out{path};
  out << digest;
  report.info("digest stored", path.string());
}

void write_trace(const RunOptions& options, const Tracer& tracer, Report& report) {
  const std::filesystem::path path =
      options.work /
      ("trace-" + options.workload + "-" + std::to_string(options.seed) + ".json");
  tracer.write_json(path);
  report.info("trace", path.string());
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc > 1 && std::strcmp(argv[1], "replica-worker") == 0) {
    try {
      const auto flags = parse_flags(argc, argv, 2);
      sdd::signals::install_graceful_shutdown();
      const auto heartbeat = flags.count("heartbeat") ? flags.at("heartbeat") : "25";
      return sdd::serve::replica_worker_main(flag(flags, "model"), flag(flags, "name"),
                                             std::stoi(flag(flags, "fd")),
                                             std::stoll(heartbeat));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench replica-worker: %s\n", e.what());
      return 1;
    }
  }

  RunOptions options;
  try {
    const auto flags = parse_flags(argc, argv, 1);
    options.workload = flag(flags, "workload");
    options.seed = std::stoull(flag(flags, "seed"));
    options.seconds = std::stod(flag(flags, "seconds"));
    options.traced = std::stoi(flag(flags, "trace")) != 0;
    options.work = flag(flags, "work");
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  const std::set<std::string> workloads{"serve_chat", "serve_prefill", "pipeline"};
  if (workloads.count(options.workload) == 0) return usage("unknown workload");
  if (!(options.seconds >= 1.0 && options.seconds <= 60.0)) {
    return usage("--seconds must be within [1, 60]");
  }

  // One compute thread: at d=64 the pool's parallel_for ran the pipeline and
  // serving no faster with 4 threads, and every op it splits waits for its
  // slowest thread, so one descheduled pool thread on a shared host stalls
  // the whole op and makes runs unsteady.
  const int threads = 1;
  const std::string refusal = make_hermetic(threads);
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", refusal.c_str());
    return 2;
  }
  std::filesystem::create_directories(options.work);

  Report report;
  report.info("workload", options.workload + " seed " + std::to_string(options.seed) +
                              " seconds " + std::to_string(options.seconds) +
                              (options.traced ? " traced" : " untraced"));
  report.info("host", "nproc " + std::to_string(cpu_count()) + ", compute threads " +
                          std::to_string(threads) + ", load average " + load_average() +
                          ", build " + PERFBENCH_BUILD_TYPE);
  try {
    if (options.workload == "pipeline") {
      run_pipeline_workload(options, report);
    } else {
      run_serve_workload(options, report);
    }
  } catch (const std::exception& e) {
    report.check(false, "run_completed", e.what());
  }
  report.print(options.traced, kEndToEnd, layer_metrics());
  return report.correct() ? 0 : 1;
}
