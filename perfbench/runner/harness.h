#ifndef PERFBENCH_RUNNER_HARNESS_H_
#define PERFBENCH_RUNNER_HARNESS_H_

// Benchmark-side plumbing shared by the three workloads: run
// configuration, clocks and percentiles, the metric catalog, the span
// recorder, and the tracing decorator that wraps a backend session.
// Everything here sits outside the library and only calls its public
// interfaces.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "engine/reachability_index.h"

namespace perfbench {

/// Command-line configuration of one workload process.
struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  /// Measured phase length: a workload starts another round of requests
  /// only while it still fits (after its minimum number of rounds).
  double seconds = 10.0;
  /// Wrap backend sessions in `TracedIndex` and record spans.
  bool trace = false;
  /// Self-test sizes: small datasets, a handful of requests.
  bool tiny = false;
  /// Self-test hook: flip one recorded answer before the oracle gate.
  bool corrupt_answer = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string trace_out;
};

/// Derives an independent seed for one input stream of a workload, so
/// datasets and request streams depend on `--seed` alone.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// steady_clock nanoseconds.
int64_t NowNs();

/// Linear-interpolated percentile (p in [0, 1]); 0 for no samples.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// \brief Measured phases replay the same requests in identical rounds,
/// each from the same starting state, so every round does the same work.
/// A run makes at least `kMinRounds` rounds, and more while another one,
/// at the pace so far, still ends before the deadline.
inline constexpr int kMinRounds = 3;
inline constexpr int kMaxRounds = 16;
bool WantAnotherRound(int rounds_done, int64_t started_ns,
                      int64_t deadline_ns);

/// Per-request latency over identical rounds: element i is the least of
/// `rounds[r][i]` over the rounds r. A shared host only ever adds time to
/// a request (preemption, cache and memory-bandwidth contention from its
/// neighbours), so the least of a request's repeats is its own cost, and
/// percentiles over these are steady from run to run.
std::vector<double> BestOf(const std::vector<std::vector<double>>& rounds);

/// Sum of `values`.
double Sum(const std::vector<double>& values);

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

/// Throws `std::runtime_error` naming `what` when `status` is not OK: a
/// set-up step that fails leaves nothing to measure.
void Require(const streach::Status& status, const char* what);

/// Shortest round-trip decimal form of a metric value.
std::string FormatValue(double value);

/// One entry of the metric catalog.
struct MetricSpec {
  const char* name;
  const char* unit;
  /// End-to-end (printed with tracing off) or per-layer (traced run).
  bool end_to_end;
};

/// Every metric the runner prints, in print order.
const std::vector<MetricSpec>& MetricCatalog();

/// Metric values of one workload run, by catalog name.
using MetricValues = std::map<std::string, double>;

/// Everything a workload reports back to `main`.
struct Outcome {
  MetricValues metrics;
  /// Operations attempted (query and ingest requests) and how many of
  /// them errored, were rejected, or disagreed with the oracle. Any
  /// failure makes the run incorrect.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Answers that disagreed with the oracle (subset of `failed`).
  uint64_t mismatched = 0;
  /// Workload properties printed before the metrics ("name=value").
  std::vector<std::pair<std::string, std::string>> properties;
};

/// \brief One timed interval: a request, a call into a layer, or a
/// set-up stage. `parent` is 0 for top-level spans; `request` names the
/// request the span belongs to (0 for set-up stages).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
};

/// \brief In-memory span store. Disabled recorders drop every span, so
/// the untraced run pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  /// Stable storage for a span name (lives as long as the tracer).
  const char* Intern(const std::string& name);

  void Record(const Span& span);
  /// Records a top-level set-up span with a fresh id.
  void RecordTopLevel(const char* name, int64_t start_ns, int64_t end_ns);

  std::vector<Span> Spans() const;
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::set<std::string> names_;  // Guarded by mu_.
  std::vector<Span> spans_;      // Guarded by mu_.
};

/// \brief The request a client is currently inside. Set by the client
/// before each engine call; read by the decorated sessions, including
/// those the engine mints for its own worker threads.
struct TraceContext {
  std::atomic<uint64_t> request{0};

  void Enter(uint64_t id) { request.store(id, std::memory_order_release); }
  uint64_t current() const { return request.load(std::memory_order_acquire); }
};

/// \brief `ReachabilityIndex` decorator that records one span per
/// backend call (`Query`, `ReachableSet`, `ReachableSets`,
/// `ConstrainedProfile`) as a child of the client's current request.
/// Every other virtual forwards unchanged — including `IndexIdentity`,
/// so the engine's result cache behaves exactly as without tracing —
/// and `NewSession` returns a decorated session sharing the context.
class TracedIndex : public streach::ReachabilityIndex {
 public:
  TracedIndex(std::unique_ptr<streach::ReachabilityIndex> inner,
              const std::string& layer, Tracer* tracer, TraceContext* context);

  streach::Result<streach::ReachAnswer> Query(
      const streach::ReachQuery& query) override;
  streach::Result<std::vector<streach::Timestamp>> ReachableSet(
      streach::ObjectId source, streach::TimeInterval interval) override;
  streach::Result<std::vector<std::vector<streach::Timestamp>>> ReachableSets(
      const std::vector<streach::ObjectId>& sources,
      streach::TimeInterval interval) override;
  streach::Result<std::vector<streach::ReachProfileEntry>> ConstrainedProfile(
      streach::ObjectId source, streach::TimeInterval interval,
      const streach::HopConstraints& hops) override;

  void SetTraversalThreads(int threads) override {
    inner_->SetTraversalThreads(threads);
  }
  const streach::QueryStats& last_query_stats() const override {
    return inner_->last_query_stats();
  }
  void ClearCache() override { inner_->ClearCache(); }
  void SetIoQueueDepth(int depth) override { inner_->SetIoQueueDepth(depth); }
  void SetMaxReadRetries(int retries) override {
    inner_->SetMaxReadRetries(retries);
  }
  void SetDegradedServing(bool on) override { inner_->SetDegradedServing(on); }
  std::shared_ptr<const void> IndexIdentity() const override {
    return inner_->IndexIdentity();
  }
  int num_shards() const override { return inner_->num_shards(); }
  std::optional<streach::PageCodecKind> page_codec() const override {
    return inner_->page_codec();
  }
  std::vector<streach::IoStats> shard_io_stats() const override {
    return inner_->shard_io_stats();
  }
  std::string DescribeIndex() const override {
    return inner_->DescribeIndex();
  }
  std::unique_ptr<streach::ReachabilityIndex> NewSession() const override;

 private:
  template <typename Call>
  auto Traced(const char* name, Call&& call);

  std::unique_ptr<streach::ReachabilityIndex> inner_;
  std::string layer_;
  Tracer* tracer_;
  TraceContext* context_;
  const char* query_name_;
  const char* set_name_;
  const char* sets_name_;
  const char* profile_name_;
};

/// Wraps `session` in a `TracedIndex` when the tracer is on; returns it
/// unchanged otherwise.
std::unique_ptr<streach::ReachabilityIndex> MaybeTrace(
    std::unique_ptr<streach::ReachabilityIndex> session,
    const std::string& layer, Tracer* tracer, TraceContext* context);

/// \brief Times one call into a layer as a top-level set-up span and
/// adds its duration (seconds) to `*total`.
template <typename Call>
auto Stage(Tracer* tracer, const char* name, double* total, Call&& call) {
  const int64_t start = NowNs();
  auto result = call();
  const int64_t end = NowNs();
  *total += static_cast<double>(end - start) * 1e-9;
  tracer->RecordTopLevel(name, start, end);
  return result;
}

/// \brief Times one client request (a call into the engine, or one
/// tick's appends into the stream) and records it as a top-level request
/// span; backend calls made meanwhile on sessions sharing `context`
/// become its children. Returns the latency in seconds.
template <typename Call>
double TimeRequest(Tracer* tracer, TraceContext* context, const char* name,
                   Call&& call) {
  const uint64_t id = tracer->enabled() ? tracer->NextId() : 0;
  context->Enter(id);
  const int64_t start = NowNs();
  call();
  const int64_t end = NowNs();
  tracer->Record(Span{name, start, end, id, 0, id});
  return static_cast<double>(end - start) * 1e-9;
}

/// \brief Nesting check and engine self time over a traced run's spans.
/// Each workload traces one backend layer, so a request's engine self
/// time is its span minus the part its backend spans cover, and the two
/// self times sum to the request's span exactly when every backend span
/// lies inside its request.
struct TraceBreakdown {
  /// Requests analysed, and backend spans outside their request's
  /// interval or naming no recorded request (must be 0).
  uint64_t requests = 0;
  uint64_t nesting_violations = 0;
  /// Engine self time summed over engine requests, and their latency.
  double engine_self_s = 0.0;
  double engine_latency_s = 0.0;
  uint64_t engine_requests = 0;
};

TraceBreakdown BreakDown(const std::vector<Span>& spans);

/// Durations (ms) of every span with exactly this name.
std::vector<double> SpanMillis(const std::vector<Span>& spans,
                               const std::string& name);

/// Adds the storage-layer counters of one engine summary to running
/// totals.
struct StorageTotals {
  double io_cost = 0.0;
  uint64_t pages_fetched = 0;
  uint64_t pool_hits = 0;
  uint64_t items_visited = 0;
  streach::IoStats shards;

  void Add(const streach::WorkloadSummary& summary);
  void Add(const StorageTotals& other);
  /// Fills the storage.* per-layer metrics and io_per_query over
  /// `requests` query requests.
  void Report(uint64_t requests, MetricValues* metrics) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_HARNESS_H_
