#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

using streach::HopConstraints;
using streach::ObjectId;
using streach::ReachabilityIndex;
using streach::ReachAnswer;
using streach::ReachProfileEntry;
using streach::ReachQuery;
using streach::Result;
using streach::TimeInterval;
using streach::Timestamp;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
               0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool WantAnotherRound(int rounds_done, int64_t started_ns,
                      int64_t deadline_ns) {
  if (rounds_done < kMinRounds) return true;
  if (rounds_done >= kMaxRounds) return false;
  const int64_t now = NowNs();
  return now + (now - started_ns) / rounds_done <= deadline_ns;
}

std::vector<double> BestOf(const std::vector<std::vector<double>>& rounds) {
  if (rounds.empty()) return {};
  std::vector<double> best = rounds[0];
  for (const std::vector<double>& round : rounds) {
    for (size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], round[i]);
    }
  }
  return best;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void Require(const streach::Status& status, const char* what) {
  if (!status.ok()) {
    throw std::runtime_error(std::string(what) + ": " + status.ToString());
  }
}

std::string FormatValue(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

const std::vector<MetricSpec>& MetricCatalog() {
  static const std::vector<MetricSpec> kCatalog = {
      // End to end (tracing off).
      {"setup_s", "s", true},
      {"query_p50_ms", "ms", true},
      {"query_p99_ms", "ms", true},
      {"queries_per_s", "1/s", true},
      {"io_per_query", "random_io", true},
      {"ingest_records_per_s", "1/s", true},
      {"ingest_p99_ms", "ms", true},
      {"space_amp", "ratio", true},
      {"peak_rss_mb", "MB", true},
      {"ok_frac", "ratio", true},
      // Per layer (traced run).
      {"generators.dataset_s", "s", false},
      {"join.extract_s", "s", false},
      {"join.contacts", "count", false},
      {"network.build_s", "s", false},
      {"reachgraph.build_s", "s", false},
      {"reachgraph.index_mb", "MB", false},
      {"reachgraph.call_ms_p50", "ms", false},
      {"reachgraph.call_ms_p99", "ms", false},
      {"reachgraph.vertices_per_call", "count", false},
      {"reachgrid.build_s", "s", false},
      {"reachgrid.index_mb", "MB", false},
      {"reachgrid.set_ms_p50", "ms", false},
      {"reachgrid.sets_ms_p50", "ms", false},
      {"reachgrid.profile_ms_p50", "ms", false},
      {"reachgrid.profile_ms_p99", "ms", false},
      {"reachgrid.cells_per_call", "count", false},
      {"storage.reads_per_query", "count", false},
      {"storage.random_read_share", "ratio", false},
      {"storage.pool_hit_rate", "ratio", false},
      {"storage.mean_inflight", "count", false},
      {"storage.decoded_kb_per_query", "KiB", false},
      {"storage.read_retries", "count", false},
      {"storage.write_amp", "ratio", false},
      {"stream.append_us_per_contact", "us", false},
      {"stream.seal_ms_p50", "ms", false},
      {"stream.seal_ms_p99", "ms", false},
      {"stream.seals", "count", false},
      {"stream.segments_per_query", "count", false},
      {"stream.head_contacts_per_query", "count", false},
      {"stream.call_ms_p50", "ms", false},
      {"stream.call_ms_p99", "ms", false},
      {"stream.wal_bytes_per_contact", "B", false},
      {"stream.recover_s", "s", false},
      {"engine.self_ms_per_query", "ms", false},
      {"engine.self_share", "ratio", false},
      {"engine.cache_hit_rate", "ratio", false},
      {"engine.repeat_key_share", "ratio", false},
      {"engine.job_ms_p50", "ms", false},
      {"engine.job_ms_p99", "ms", false},
      {"engine.family_ms_p50.boolean", "ms", false},
      {"engine.family_ms_p50.decay", "ms", false},
      {"engine.family_ms_p50.khop", "ms", false},
      {"engine.family_ms_p50.topk", "ms", false},
      {"engine.family_ms_p50.threshold", "ms", false},
      {"engine.failed", "count", false},
  };
  return kCatalog;
}

// ------------------------------------------------------------------ Tracer

const char* Tracer::Intern(const std::string& name) {
  std::lock_guard<std::mutex> guard(mu_);
  return names_.insert(name).first->c_str();
}

void Tracer::Record(const Span& span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> guard(mu_);
  spans_.push_back(span);
}

void Tracer::RecordTopLevel(const char* name, int64_t start_ns,
                            int64_t end_ns) {
  if (!enabled_) return;
  Record(Span{name, start_ns, end_ns, NextId(), 0, 0});
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> guard(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : Spans()) {
    std::fprintf(out,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"id\": %llu, \"parent\": %llu, \"request\": %llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(out) == 0;
}

// ------------------------------------------------------------- TracedIndex

TracedIndex::TracedIndex(std::unique_ptr<ReachabilityIndex> inner,
                         const std::string& layer, Tracer* tracer,
                         TraceContext* context)
    : inner_(std::move(inner)),
      layer_(layer),
      tracer_(tracer),
      context_(context),
      query_name_(tracer->Intern(layer + ".Query")),
      set_name_(tracer->Intern(layer + ".ReachableSet")),
      sets_name_(tracer->Intern(layer + ".ReachableSets")),
      profile_name_(tracer->Intern(layer + ".ConstrainedProfile")) {}

template <typename Call>
auto TracedIndex::Traced(const char* name, Call&& call) {
  const uint64_t request = context_->current();
  const int64_t start = NowNs();
  auto result = call();
  const int64_t end = NowNs();
  tracer_->Record(
      Span{name, start, end, tracer_->NextId(), request, request});
  return result;
}

Result<ReachAnswer> TracedIndex::Query(const ReachQuery& query) {
  return Traced(query_name_, [&] { return inner_->Query(query); });
}

Result<std::vector<Timestamp>> TracedIndex::ReachableSet(
    ObjectId source, TimeInterval interval) {
  return Traced(set_name_,
                [&] { return inner_->ReachableSet(source, interval); });
}

Result<std::vector<std::vector<Timestamp>>> TracedIndex::ReachableSets(
    const std::vector<ObjectId>& sources, TimeInterval interval) {
  return Traced(sets_name_,
                [&] { return inner_->ReachableSets(sources, interval); });
}

Result<std::vector<ReachProfileEntry>> TracedIndex::ConstrainedProfile(
    ObjectId source, TimeInterval interval, const HopConstraints& hops) {
  return Traced(profile_name_, [&] {
    return inner_->ConstrainedProfile(source, interval, hops);
  });
}

std::unique_ptr<ReachabilityIndex> TracedIndex::NewSession() const {
  return std::make_unique<TracedIndex>(inner_->NewSession(), layer_, tracer_,
                                       context_);
}

std::unique_ptr<ReachabilityIndex> MaybeTrace(
    std::unique_ptr<ReachabilityIndex> session, const std::string& layer,
    Tracer* tracer, TraceContext* context) {
  if (!tracer->enabled()) return session;
  return std::make_unique<TracedIndex>(std::move(session), layer, tracer,
                                       context);
}

// --------------------------------------------------------------- BreakDown

namespace {

/// Total length of the union of [start, end) intervals.
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (!open || start > run_end) {
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    } else {
      run_end = std::max(run_end, end);
    }
  }
  if (open) covered += run_end - run_start;
  return covered;
}

}  // namespace

TraceBreakdown BreakDown(const std::vector<Span>& spans) {
  std::map<uint64_t, const Span*> requests;
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent == 0 && s.request == s.id) requests[s.id] = &s;
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  TraceBreakdown out;
  for (const auto& [parent, intervals] : children) {
    const auto it = requests.find(parent);
    for (const auto& [start, end] : intervals) {
      if (it == requests.end() || start < it->second->start_ns ||
          end > it->second->end_ns) {
        ++out.nesting_violations;
      }
    }
  }
  for (const auto& [id, request] : requests) {
    ++out.requests;
    if (std::strncmp(request->name, "engine.", 7) != 0) continue;
    const int64_t latency = request->end_ns - request->start_ns;
    const int64_t self = latency - CoveredNs(children[id]);
    out.engine_self_s += static_cast<double>(self) * 1e-9;
    out.engine_latency_s += static_cast<double>(latency) * 1e-9;
    ++out.engine_requests;
  }
  return out;
}

std::vector<double> SpanMillis(const std::vector<Span>& spans,
                               const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

// ----------------------------------------------------------- StorageTotals

void StorageTotals::Add(const streach::WorkloadSummary& summary) {
  io_cost += summary.total_io_cost;
  pages_fetched += summary.total_pages_fetched;
  pool_hits += summary.total_pool_hits;
  items_visited += summary.total_items_visited;
  for (const streach::IoStats& shard : summary.per_shard_io) shards += shard;
}

void StorageTotals::Add(const StorageTotals& other) {
  io_cost += other.io_cost;
  pages_fetched += other.pages_fetched;
  pool_hits += other.pool_hits;
  items_visited += other.items_visited;
  shards += other.shards;
}

void StorageTotals::Report(uint64_t requests, MetricValues* metrics) const {
  const double n = static_cast<double>(std::max<uint64_t>(requests, 1));
  const uint64_t fetches = pool_hits + pages_fetched;
  const uint64_t reads = shards.total_reads();
  (*metrics)["io_per_query"] = io_cost / n;
  (*metrics)["storage.reads_per_query"] =
      static_cast<double>(pages_fetched) / n;
  (*metrics)["storage.random_read_share"] =
      reads == 0 ? 0.0
                 : static_cast<double>(shards.random_reads) /
                       static_cast<double>(reads);
  (*metrics)["storage.pool_hit_rate"] =
      fetches == 0 ? 0.0
                   : static_cast<double>(pool_hits) /
                         static_cast<double>(fetches);
  (*metrics)["storage.mean_inflight"] = shards.mean_inflight();
  (*metrics)["storage.decoded_kb_per_query"] =
      static_cast<double>(shards.decoded_bytes) / 1024.0 / n;
  (*metrics)["storage.read_retries"] =
      static_cast<double>(shards.read_retries);
}

}  // namespace perfbench
