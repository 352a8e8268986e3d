// paper_cold: the paper's own measurement protocol (§6), so that storage
// and traversal cost show without any cache.
//
// Set-up: VN-L (320 vehicles, 2000 ticks) -> contacts -> contact network
// -> ReachGraph, raw codec, 1 shard, IO depth 1, 64-page pool.
// Traffic: one closed-loop client; each request is one uniform §6 point
// query (interval 150-350 ticks) through QueryEngine::Run with
// cold_cache, so the pool is cleared before every query and no key
// repeats. The client sends the same 1000 distinct queries in identical
// rounds (cold_cache makes every round repeat the same work); a
// request's latency is its least wall-clock time over the rounds.
// Loads: generators, join, network (set-up); reachgraph traversal and
// synchronous cold storage reads (heavy); the engine's per-call overhead.
// Bypasses: the engine's result cache (off under cold_cache), reachgrid,
// stream.

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/backends.h"
#include "engine/query_engine.h"
#include "generators/datasets.h"
#include "generators/workload.h"
#include "join/contact_extractor.h"
#include "network/brute_force.h"
#include "network/contact_network.h"
#include "reachgraph/reach_graph_index.h"
#include "workloads.h"

namespace perfbench {

using namespace streach;

Outcome RunPaperCold(const RunConfig& config, Tracer* tracer) {
  const DatasetScale scale =
      config.tiny ? DatasetScale::kSmall : DatasetScale::kLarge;
  const Timestamp duration = config.tiny ? 400 : 2000;
  const uint64_t dataset_seed = SubSeed(config.seed, 1);

  std::vector<double> setup_s, generate_s, join_s, network_s, build_s,
      ingest_s;
  std::optional<Dataset> dataset;
  uint64_t contacts = 0;
  // One bulk load: contacts, contact network and ReachGraph from the
  // trajectories. Extraction, network and build together are one ingest
  // request.
  auto bulk_load = [&] {
    double join = 0, net = 0, build = 0;
    JoinOptions join_options;
    join_options.threads = 2;
    std::vector<Contact> list =
        Stage(tracer, "join.ExtractContacts", &join, [&] {
          return ExtractContacts(dataset->store, dataset->contact_range,
                                 join_options);
        });
    contacts = list.size();
    auto network = Stage(tracer, "network.ContactNetwork", &net, [&] {
      return std::make_shared<const ContactNetwork>(
          dataset->num_objects(), dataset->span(), std::move(list));
    });
    auto built = Stage(tracer, "reachgraph.Build", &build, [&] {
      return ReachGraphIndex::Build(*network, ReachGraphOptions{});
    });
    Require(built.status(), "ReachGraphIndex::Build");
    join_s.push_back(join);
    network_s.push_back(net);
    build_s.push_back(build);
    ingest_s.push_back(join + net + build);
    return std::make_pair(std::move(network), std::move(*built));
  };
  std::shared_ptr<const ContactNetwork> network;
  std::shared_ptr<const ReachGraphIndex> graph;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    graph.reset();
    network.reset();
    dataset.reset();
    double generate = 0;
    const int64_t start = NowNs();
    Result<Dataset> made =
        Stage(tracer, "generators.MakeVnDataset", &generate,
              [&] { return MakeVnDataset(scale, duration, dataset_seed); });
    Require(made.status(), "MakeVnDataset");
    dataset.emplace(std::move(made).ValueUnsafe());
    std::tie(network, graph) = bulk_load();
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    generate_s.push_back(generate);
  }
  // The first bulk load also grows the process heap.
  ingest_s.erase(ingest_s.begin());
  const uint64_t input_bytes = dataset->store.RawSizeBytes();
  const uint64_t samples = dataset->num_objects() *
                           static_cast<uint64_t>(dataset->span().length());

  TraceContext context;
  std::unique_ptr<ReachabilityIndex> session =
      MaybeTrace(MakeReachGraphBackend(graph, ReachGraphTraversal::kBmBfs),
                 "reachgraph", tracer, &context);
  QueryEngineOptions engine_options;
  engine_options.cold_cache = true;
  const QueryEngine engine(engine_options);

  WorkloadParams params;
  params.num_queries = MinQueryRequests(config);
  params.num_objects = network->num_objects();
  params.span = network->span();
  params.seed = SubSeed(config.seed, 2);
  const std::vector<ReachQuery> queries = GenerateWorkload(params);

  // Measured phase: identical rounds over the same queries, with one more
  // bulk load after each, so the ingest samples span the run. An errored
  // request leaves no answer. Peak RSS is read after the first round,
  // before the extra bulk loads (which hold a second index).
  std::vector<std::vector<std::optional<ReachAnswer>>> answers;
  std::vector<std::vector<double>> latency_ms;
  StorageTotals storage;
  double peak_rss_mb = 0.0;
  const int64_t started = NowNs();
  const int64_t deadline =
      started + static_cast<int64_t>(config.seconds * 1e9);
  while (WantAnotherRound(static_cast<int>(answers.size()), started,
                          deadline)) {
    std::vector<std::optional<ReachAnswer>>& got = answers.emplace_back();
    std::vector<double>& ms = latency_ms.emplace_back();
    for (const ReachQuery& query : queries) {
      const std::vector<ReachQuery> batch{query};
      std::optional<Result<WorkloadReport>> report;
      ms.push_back(1e3 * TimeRequest(tracer, &context, "engine.Run", [&] {
                     report.emplace(engine.Run(session.get(), batch));
                   }));
      const bool ok = report->ok() && report->ValueUnsafe().statuses[0].ok();
      got.push_back(ok ? std::optional<ReachAnswer>(
                             report->ValueUnsafe().answers[0])
                       : std::nullopt);
      if (report->ok()) storage.Add(report->ValueUnsafe().summary);
    }
    if (answers.size() == 1) peak_rss_mb = PeakRssMb();
    bulk_load();
  }

  // Oracle gate: brute-force reach over the same contact network, on two
  // threads, once per query; every round must match it. ReachGraph's
  // point contract reports reachability, not arrival times.
  if (config.corrupt_answer && answers[0][0].has_value()) {
    answers[0][0]->reachable = !answers[0][0]->reachable;
  }
  std::vector<char> reachable(queries.size(), 0);
  auto expect = [&](size_t first) {
    for (size_t i = first; i < queries.size(); i += 2) {
      const ReachQuery& q = queries[i];
      reachable[i] =
          BruteForceReach(*network, q.source, q.destination, q.interval)
              .reachable;
    }
  };
  std::thread helper(expect, 1);
  expect(0);
  helper.join();
  Outcome out;
  for (const std::vector<std::optional<ReachAnswer>>& round : answers) {
    for (size_t i = 0; i < round.size(); ++i) {
      ++out.attempted;
      if (!round[i].has_value()) {
        ++out.failed;
      } else if ((reachable[i] != 0) != round[i]->reachable) {
        ++out.failed;
        ++out.mismatched;
      }
    }
  }

  // No key repeats by construction; count the ones that do anyway.
  std::set<std::tuple<ObjectId, Timestamp, Timestamp>> seen;
  uint64_t repeats = 0;
  for (const ReachQuery& q : queries) {
    if (!seen.insert({q.source, q.interval.start, q.interval.end}).second) {
      ++repeats;
    }
  }

  const uint64_t n = queries.size();
  const std::vector<double> best_ms = BestOf(latency_ms);
  const double ingest_best_s = *std::min_element(ingest_s.begin(),
                                                 ingest_s.end());
  const ReachGraphBuildStats& stats = graph->build_stats();
  uint64_t pages_written = 0;
  for (const IoStats& shard : graph->build_io_stats()) {
    pages_written += shard.total_writes();
  }
  MetricValues& m = out.metrics;
  m["setup_s"] = Median(setup_s);
  m["query_p50_ms"] = Percentile(best_ms, 0.50);
  m["query_p99_ms"] = Percentile(best_ms, 0.99);
  m["queries_per_s"] = static_cast<double>(n) * 1e3 / Sum(best_ms);
  storage.Report(out.attempted, &m);
  // A bulk load is one ingest request; its best warm time sets both
  // metrics.
  m["ingest_records_per_s"] = static_cast<double>(samples) / ingest_best_s;
  m["ingest_p99_ms"] = ingest_best_s * 1e3;
  m["space_amp"] = static_cast<double>(stats.index_bytes) /
                   static_cast<double>(input_bytes);
  m["peak_rss_mb"] = peak_rss_mb;
  m["generators.dataset_s"] = Median(generate_s);
  m["join.extract_s"] = Median(join_s);
  m["join.contacts"] = static_cast<double>(contacts);
  m["network.build_s"] = Median(network_s);
  m["reachgraph.build_s"] = Median(build_s);
  m["reachgraph.index_mb"] = static_cast<double>(stats.index_bytes) / 1e6;
  m["reachgraph.vertices_per_call"] =
      static_cast<double>(storage.items_visited) /
      static_cast<double>(out.attempted);
  m["storage.write_amp"] =
      static_cast<double>(pages_written * graph->options().page_size) /
      static_cast<double>(input_bytes);
  m["engine.repeat_key_share"] =
      static_cast<double>(repeats) / static_cast<double>(n);
  if (tracer->enabled()) {
    const std::vector<Span> spans = tracer->Spans();
    const std::vector<double> calls = SpanMillis(spans, "reachgraph.Query");
    m["reachgraph.call_ms_p50"] = Percentile(calls, 0.50);
    m["reachgraph.call_ms_p99"] = Percentile(calls, 0.99);
  }

  out.properties = {
      {"index_pages", std::to_string(stats.index_pages)},
      {"pool_pages", std::to_string(graph->options().buffer_pool_pages)},
      {"engine.repeat_key_share", FormatValue(m["engine.repeat_key_share"])},
      {"stream.segments_per_query", "n/a (no stream)"},
      {"threads", "1 client"},
      {"rounds", std::to_string(answers.size())},
  };
  return out;
}

}  // namespace perfbench
