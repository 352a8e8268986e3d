// Benchmark runner: runs one workload in this process and prints its
// metrics. Usage:
//
//   perfbench_runner --workload <paper_cold|watchlist_mix|live_ingest>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <spans.jsonl>] [--tiny] [--corrupt-answer]
//
// The last line of standard output is one JSON object: correctness, the
// operation counts, and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). A traced run also prints its own
// end-to-end metrics on the line before, prefixed "end_to_end ", so the
// caller can report the tracing overhead. Exit status is 1 when any
// operation errored, was rejected or disagreed with the oracle, 2 on bad
// usage, a failed set-up or a trace whose spans do not nest.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, RunConfig* config) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      config->workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      config->seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      config->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out" && has_value) {
      config->trace_out = argv[++i];
    } else if (arg == "--tiny") {
      config->tiny = true;
    } else if (arg == "--corrupt-answer") {
      config->corrupt_answer = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n",
                   arg.c_str());
      return false;
    }
  }
  return have_workload && have_seed && config->seconds > 0;
}

std::string MetricsJson(const MetricValues& values, bool end_to_end) {
  std::string json = "{";
  for (const MetricSpec& spec : MetricCatalog()) {
    if (spec.end_to_end != end_to_end) continue;
    const auto it = values.find(spec.name);
    const double value = it == values.end() ? 0.0 : it->second;
    if (json.size() > 1) json += ", ";
    json += std::string("\"") + spec.name + "\": {\"value\": " +
            FormatValue(value) + ", \"unit\": \"" + spec.unit + "\"}";
  }
  return json + "}";
}

void PrintMetrics(const MetricValues& values, bool end_to_end) {
  for (const MetricSpec& spec : MetricCatalog()) {
    if (spec.end_to_end != end_to_end) continue;
    const auto it = values.find(spec.name);
    std::printf("metric %-34s %14.6g %s\n", spec.name,
                it == values.end() ? 0.0 : it->second, spec.unit);
  }
}

int Main(int argc, char** argv) {
  RunConfig config;
  if (!ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] [--tiny] "
                 "[--corrupt-answer]\n");
    return 2;
  }
  Outcome (*run)(const RunConfig&, Tracer*) = nullptr;
  if (config.workload == "paper_cold") run = RunPaperCold;
  if (config.workload == "watchlist_mix") run = RunWatchlistMix;
  if (config.workload == "live_ingest") run = RunLiveIngest;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", config.workload.c_str());
    return 2;
  }

  Tracer tracer(config.trace);
  Outcome out;
  try {
    out = run(config, &tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", config.workload.c_str(), e.what());
    return 2;
  }
  MetricValues& m = out.metrics;
  m["ok_frac"] = 1.0 - static_cast<double>(out.failed) /
                           static_cast<double>(out.attempted);
  m["engine.failed"] = static_cast<double>(out.failed);

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const auto& [name, value] : out.properties) {
    std::printf("property %s = %s\n", name.c_str(), value.c_str());
  }

  if (config.trace) {
    const std::vector<Span> spans = tracer.Spans();
    const TraceBreakdown breakdown = BreakDown(spans);
    if (breakdown.engine_requests > 0) {
      m["engine.self_ms_per_query"] =
          breakdown.engine_self_s * 1e3 /
          static_cast<double>(breakdown.engine_requests);
      m["engine.self_share"] =
          breakdown.engine_self_s / breakdown.engine_latency_s;
    }
    std::printf("trace %zu spans, %llu requests, %llu nesting violations\n",
                spans.size(),
                static_cast<unsigned long long>(breakdown.requests),
                static_cast<unsigned long long>(breakdown.nesting_violations));
    if (!config.trace_out.empty() && !tracer.WriteJsonLines(config.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", config.trace_out.c_str());
      return 2;
    }
    if (breakdown.nesting_violations > 0) {
      std::fprintf(stderr, "backend spans lie outside their requests\n");
      return 2;
    }
  }

  for (const MetricSpec& spec : MetricCatalog()) {
    const auto it = m.find(spec.name);
    if (spec.end_to_end && (it == m.end() || !std::isfinite(it->second))) {
      std::fprintf(stderr, "end-to-end metric %s was not measured\n",
                   spec.name);
      return 2;
    }
    if (it != m.end() && !std::isfinite(it->second)) it->second = 0.0;
  }
  PrintMetrics(m, /*end_to_end=*/true);
  if (config.trace) PrintMetrics(m, /*end_to_end=*/false);
  std::printf("check attempted %llu failed %llu mismatched %llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.mismatched));
  if (config.trace) {
    std::printf("end_to_end %s\n", MetricsJson(m, true).c_str());
  }
  const bool correct = out.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed),
      MetricsJson(m, !config.trace).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
