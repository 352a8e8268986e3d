#ifndef PERFBENCH_RUNNER_WORKLOADS_H_
#define PERFBENCH_RUNNER_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// The three workloads. Each builds its inputs from `config.seed`, runs
/// its set-up several times, replays its requests in identical rounds
/// for `config.seconds`, then checks every answer against the
/// brute-force oracle.
Outcome RunPaperCold(const RunConfig& config, Tracer* tracer);
Outcome RunWatchlistMix(const RunConfig& config, Tracer* tracer);
Outcome RunLiveIngest(const RunConfig& config, Tracer* tracer);

/// Set-up repetitions per run; `setup_s` is their median.
inline constexpr int kSetupRepetitions = 5;

/// Distinct query requests in one round of a full-size run (so the p99
/// has ten samples beyond it); the self-test sizes need far fewer.
inline uint64_t MinQueryRequests(const RunConfig& config) {
  return config.tiny ? 20 : 1000;
}

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_WORKLOADS_H_
