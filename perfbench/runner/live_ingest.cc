// live_ingest: writes beside reads on the streaming tier.
//
// Set-up: RWP-M (1600 pedestrians, 4000 ticks) -> contacts -> the
// arrival stream: each contact arrives at its close tick plus a seeded
// lateness in [0, kLatenessTicks]; one ingest request carries one tick's
// arrivals. The ingestor seals every kSealTicks ticks, raw codec, 1
// shard.
// Traffic: one thread replays the stream tick by tick into a fresh
// StreamingIngestor. Every `query_every` ticks it sends `point_queries`
// point queries over a recent window (served by the head and a few
// sealed segments) through QueryEngine::Run, and one tracing job:
// RunClosures with 2 engine threads and batch_sources 4 over a
// `lookback` spanning dozens of sealed segments. A run replays whole
// passes of the same stream (the rounds), so every pass sends the same
// requests against the same state; a request's latency is its least
// over the passes.
// Loads: stream (append, WAL, seals, sweeps fanning out over segments),
// storage segment loads, the engine's multi-threaded RunClosures
// scheduler. Bypasses: both batch indexes and the result cache (a live
// index has no identity to cache under).

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "engine/query_engine.h"
#include "generators/datasets.h"
#include "join/contact_extractor.h"
#include "network/brute_force.h"
#include "network/contact_network.h"
#include "stream/segmented_index.h"
#include "stream/streaming_ingestor.h"
#include "stream/streaming_options.h"
#include "workloads.h"

namespace perfbench {

using namespace streach;

namespace {

constexpr int kSealTicks = 48;
constexpr int kLatenessTicks = 4;
constexpr int kJobSources = 8;
constexpr int kJobThreads = 2;
constexpr int kJobBatch = 4;
constexpr uint64_t kContactBytes = 16;

struct Sizes {
  DatasetScale scale;
  Timestamp duration;
  Timestamp query_every;
  int point_queries;
  Timestamp min_window;
  Timestamp max_window;
  Timestamp lookback;
};

Sizes SizesFor(const RunConfig& config) {
  if (config.tiny) return {DatasetScale::kSmall, 400, 100, 4, 20, 40, 200};
  return {DatasetScale::kMedium, 4000, 250, 64, 60, 120, 1536};
}

/// The contact stream in arrival order, grouped by arrival tick:
/// `arrivals[tick_begin[t] .. tick_begin[t + 1])` arrive at tick t.
struct ArrivalStream {
  std::vector<Contact> arrivals;
  std::vector<size_t> tick_begin;
  size_t num_objects = 0;
  TimeInterval span;
};

ArrivalStream PrepareStream(std::vector<Contact> contacts, size_t num_objects,
                            TimeInterval span, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Timestamp, Contact>> keyed;
  keyed.reserve(contacts.size());
  for (const Contact& c : contacts) {
    const Timestamp arrival = std::min<Timestamp>(
        c.validity.end + static_cast<Timestamp>(rng.Uniform(kLatenessTicks + 1)),
        span.end);
    keyed.emplace_back(arrival, c);
  }
  std::sort(keyed.begin(), keyed.end(), [](const auto& x, const auto& y) {
    return std::tie(x.first, x.second.validity.end, x.second.validity.start,
                    x.second.a, x.second.b) <
           std::tie(y.first, y.second.validity.end, y.second.validity.start,
                    y.second.a, y.second.b);
  });
  ArrivalStream stream;
  stream.num_objects = num_objects;
  stream.span = span;
  stream.tick_begin.assign(static_cast<size_t>(span.length()) + 1, 0);
  for (const auto& [arrival, contact] : keyed) {
    ++stream.tick_begin[static_cast<size_t>(arrival - span.start) + 1];
    stream.arrivals.push_back(contact);
  }
  for (size_t t = 1; t < stream.tick_begin.size(); ++t) {
    stream.tick_begin[t] += stream.tick_begin[t - 1];
  }
  return stream;
}

/// The queries asked at one tick of a pass.
struct QueryPoint {
  Timestamp tick = 0;
  std::vector<ReachQuery> points;
  std::vector<ObjectId> job_sources;
  TimeInterval job_interval;
};

std::vector<QueryPoint> GenerateQueries(const Sizes& sizes,
                                        size_t num_objects, uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryPoint> out;
  for (Timestamp t = sizes.query_every - 1; t < sizes.duration;
       t += sizes.query_every) {
    QueryPoint qp;
    qp.tick = t;
    for (int i = 0; i < sizes.point_queries; ++i) {
      ReachQuery q;
      q.source = static_cast<ObjectId>(rng.Uniform(num_objects));
      do {
        q.destination = static_cast<ObjectId>(rng.Uniform(num_objects));
      } while (q.destination == q.source);
      const Timestamp window = static_cast<Timestamp>(
          rng.UniformInt(sizes.min_window, sizes.max_window));
      q.interval = TimeInterval(std::max<Timestamp>(0, t - window + 1), t);
      qp.points.push_back(q);
    }
    for (int i = 0; i < kJobSources; ++i) {
      qp.job_sources.push_back(
          static_cast<ObjectId>(rng.Uniform(num_objects)));
    }
    qp.job_interval =
        TimeInterval(std::max<Timestamp>(0, t - sizes.lookback + 1), t);
    out.push_back(std::move(qp));
  }
  return out;
}

/// What one query point answered, plus how much of the stream was acked
/// when it was asked.
struct PointAnswers {
  size_t acked_prefix = 0;
  std::vector<ReachAnswer> points;
  std::vector<bool> point_ok;
  std::vector<std::vector<Timestamp>> job;
  bool job_ok = false;
};

}  // namespace

Outcome RunLiveIngest(const RunConfig& config, Tracer* tracer) {
  const Sizes sizes = SizesFor(config);

  std::vector<double> setup_s, generate_s, join_s;
  std::optional<ArrivalStream> stream;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    stream.reset();
    double generate = 0, join = 0, prepare = 0;
    const int64_t start = NowNs();
    Result<Dataset> dataset =
        Stage(tracer, "generators.MakeRwpDataset", &generate, [&] {
          return MakeRwpDataset(sizes.scale, sizes.duration,
                                SubSeed(config.seed, 1));
        });
    Require(dataset.status(), "MakeRwpDataset");
    JoinOptions join_options;
    join_options.threads = 2;
    std::vector<Contact> contacts =
        Stage(tracer, "join.ExtractContacts", &join, [&] {
          return ExtractContacts(dataset->store, dataset->contact_range,
                                 join_options);
        });
    stream.emplace(Stage(tracer, "perfbench.PrepareStream", &prepare, [&] {
      return PrepareStream(std::move(contacts), dataset->num_objects(),
                           dataset->span(), SubSeed(config.seed, 3));
    }));
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    generate_s.push_back(generate);
    join_s.push_back(join);
  }

  StreamingOptions options;
  options.num_objects = stream->num_objects;
  options.span = stream->span;
  options.seal_interval_ticks = kSealTicks;
  options.max_lateness_ticks = kLatenessTicks;
  const QueryEngine point_engine{QueryEngineOptions{}};
  QueryEngineOptions job_options;
  job_options.num_threads = kJobThreads;
  job_options.batch_sources = kJobBatch;
  const QueryEngine job_engine(job_options);
  const std::vector<QueryPoint> query_points = GenerateQueries(
      sizes, stream->num_objects, SubSeed(config.seed, 2));

  // Measured phase: whole passes over the stream. Seals and jobs fall on
  // the same request positions in every pass.
  TraceContext context;
  std::vector<std::vector<double>> ingest_ms, query_ms;  // [pass][request]
  std::vector<size_t> seal_at, job_at;  // Request positions, first pass.
  uint64_t failed_ingests = 0;
  uint64_t segments_seen = 0, head_seen = 0;
  StorageTotals storage;
  std::vector<std::vector<PointAnswers>> passes;
  std::vector<char> acked_flags;  // Of the first pass, by arrival index.
  std::shared_ptr<StreamingIngestor> ingestor;
  const int64_t started = NowNs();
  const int64_t deadline =
      started + static_cast<int64_t>(config.seconds * 1e9);
  while (WantAnotherRound(static_cast<int>(passes.size()), started,
                          deadline)) {
    Result<std::shared_ptr<StreamingIngestor>> created =
        StreamingIngestor::Create(options);
    Require(created.status(), "StreamingIngestor::Create");
    ingestor = *created;
    std::unique_ptr<ReachabilityIndex> session = MaybeTrace(
        MakeStreamingBackend(ingestor), "stream", tracer, &context);
    const bool first_pass = passes.empty();
    if (first_pass) acked_flags.assign(stream->arrivals.size(), 0);
    std::vector<PointAnswers> answers;
    std::vector<double>& ingest = ingest_ms.emplace_back();
    std::vector<double>& query = query_ms.emplace_back();
    size_t next_point = 0;
    for (Timestamp t = stream->span.start; t <= stream->span.end; ++t) {
      const size_t begin = stream->tick_begin[t - stream->span.start];
      const size_t end = stream->tick_begin[t - stream->span.start + 1];
      if (begin < end) {
        const size_t sealed_before = ingestor->sealed_segments();
        uint64_t rejected = 0;
        const double latency =
            TimeRequest(tracer, &context, "stream.Append", [&] {
              for (size_t i = begin; i < end; ++i) {
                if (ingestor->Append(stream->arrivals[i]).ok()) {
                  if (first_pass) acked_flags[i] = 1;
                } else {
                  ++rejected;
                }
              }
            });
        if (rejected > 0) ++failed_ingests;
        if (first_pass && ingestor->sealed_segments() > sealed_before) {
          seal_at.push_back(ingest.size());
        }
        ingest.push_back(latency * 1e3);
      }
      if (next_point >= query_points.size() ||
          query_points[next_point].tick != t) {
        continue;
      }
      const QueryPoint& qp = query_points[next_point++];
      PointAnswers pa;
      pa.acked_prefix = end;
      for (const ReachQuery& q : qp.points) {
        const StreamingIngestor::Snapshot snapshot =
            ingestor->SnapshotFor(q.interval);
        segments_seen += snapshot.segments.size();
        head_seen += snapshot.head.size();
        const std::vector<ReachQuery> batch{q};
        std::optional<Result<WorkloadReport>> report;
        query.push_back(1e3 * TimeRequest(tracer, &context, "engine.Run", [&] {
                          report.emplace(point_engine.Run(session.get(), batch));
                        }));
        const bool ok = report->ok() && report->ValueUnsafe().statuses[0].ok();
        pa.point_ok.push_back(ok);
        pa.points.push_back(ok ? report->ValueUnsafe().answers[0]
                               : ReachAnswer{});
        if (report->ok()) storage.Add(report->ValueUnsafe().summary);
      }
      const StreamingIngestor::Snapshot snapshot =
          ingestor->SnapshotFor(qp.job_interval);
      segments_seen += snapshot.segments.size();
      head_seen += snapshot.head.size();
      std::optional<Result<ClosureWorkloadReport>> job;
      if (first_pass) job_at.push_back(query.size());
      query.push_back(
          1e3 * TimeRequest(tracer, &context, "engine.RunClosures", [&] {
            job.emplace(job_engine.RunClosures(session.get(), qp.job_sources,
                                               qp.job_interval));
          }));
      pa.job_ok = job->ok();
      if (job->ok()) {
        pa.job = std::move(job->ValueUnsafe().sets);
        storage.Add(job->ValueUnsafe().summary);
      }
      answers.push_back(std::move(pa));
    }
    passes.push_back(std::move(answers));
  }
  const double peak_rss_mb = PeakRssMb();
  const uint64_t stored_bytes = ingestor->stored_bytes();
  const std::string wal = ingestor->WalBytes();
  const uint64_t pass_acked = ingestor->appended_contacts();

  // Restart: rebuild the last pass's ingestor from its WAL and ask the
  // final query point again.
  double recover_s = 0.0;
  Result<std::shared_ptr<StreamingIngestor>> recovered =
      Stage(tracer, "stream.Recover", &recover_s,
            [&] { return StreamingIngestor::Recover(options, wal); });
  Require(recovered.status(), "StreamingIngestor::Recover");
  PointAnswers replayed;
  {
    const QueryPoint& qp = query_points.back();
    std::unique_ptr<ReachabilityIndex> session =
        MakeStreamingBackend(*recovered);
    for (const ReachQuery& q : qp.points) {
      Result<WorkloadReport> report = point_engine.Run(session.get(), {q});
      const bool ok = report.ok() && report->statuses[0].ok();
      replayed.point_ok.push_back(ok);
      replayed.points.push_back(ok ? report->answers[0] : ReachAnswer{});
    }
    Result<ClosureWorkloadReport> job =
        job_engine.RunClosures(session.get(), qp.job_sources, qp.job_interval);
    replayed.job_ok = job.ok();
    if (job.ok()) replayed.job = std::move(job->sets);
  }

  // Oracle gate: brute force over exactly the contacts acked when each
  // query point was asked. Every pass replays the same stream and
  // requests, so one expected answer set serves them all; the recovered
  // ingestor must repeat the final query point's answers.
  if (config.corrupt_answer) {
    ReachAnswer& a = passes[0][0].points[0];
    a.reachable = !a.reachable;
  }
  std::vector<PointAnswers> expected(query_points.size());
  auto expect = [&](size_t p) {
    const QueryPoint& qp = query_points[p];
    std::vector<Contact> known;
    for (size_t i = 0; i < passes[0][p].acked_prefix; ++i) {
      const Contact& c = stream->arrivals[i];
      if (acked_flags[i] && c.validity.Overlaps(qp.job_interval)) {
        known.push_back(c);
      }
    }
    const ContactNetwork network(stream->num_objects, stream->span,
                                 std::move(known));
    PointAnswers& want = expected[p];
    for (const ReachQuery& q : qp.points) {
      want.points.push_back(
          BruteForceReach(network, q.source, q.destination, q.interval));
    }
    for (ObjectId source : qp.job_sources) {
      want.job.push_back(BruteForceClosure(network, source, qp.job_interval));
    }
  };
  {
    // Two oracle threads, each taking every other query point.
    std::thread helper([&] {
      for (size_t p = 1; p < query_points.size(); p += 2) expect(p);
    });
    for (size_t p = 0; p < query_points.size(); p += 2) expect(p);
    helper.join();
  }
  Outcome out;
  out.attempted = passes.size() * (ingest_ms[0].size() + query_ms[0].size());
  out.failed = failed_ingests;
  auto check = [&](const PointAnswers& got, const PointAnswers& want) {
    for (size_t i = 0; i < want.points.size(); ++i) {
      if (!got.point_ok[i]) {
        ++out.failed;
      } else if (got.points[i].reachable != want.points[i].reachable ||
                 got.points[i].arrival_time != want.points[i].arrival_time) {
        ++out.failed;
        ++out.mismatched;
      }
    }
    if (!got.job_ok) {
      ++out.failed;
    } else if (got.job != want.job) {
      ++out.failed;
      ++out.mismatched;
    }
  };
  for (const std::vector<PointAnswers>& pass : passes) {
    for (size_t p = 0; p < pass.size(); ++p) check(pass[p], expected[p]);
  }
  check(replayed, expected.back());
  out.attempted += replayed.points.size() + 1;

  const std::vector<double> best_ingest = BestOf(ingest_ms);
  const std::vector<double> best_query = BestOf(query_ms);
  std::vector<double> seal_ms, job_ms;
  for (size_t i : seal_at) seal_ms.push_back(best_ingest[i]);
  for (size_t i : job_at) job_ms.push_back(best_query[i]);
  const double n = static_cast<double>(best_query.size());
  const double queries_sent = n * static_cast<double>(passes.size());
  const size_t stream_contacts = stream->arrivals.size();
  MetricValues& m = out.metrics;
  m["setup_s"] = Median(setup_s);
  m["query_p50_ms"] = Percentile(best_query, 0.50);
  m["query_p99_ms"] = Percentile(best_query, 0.99);
  m["queries_per_s"] = n * 1e3 / Sum(best_query);
  storage.Report(static_cast<uint64_t>(queries_sent), &m);
  m["ingest_records_per_s"] =
      static_cast<double>(pass_acked) * 1e3 / Sum(best_ingest);
  m["ingest_p99_ms"] = Percentile(best_ingest, 0.99);
  m["space_amp"] = static_cast<double>(stored_bytes + wal.size()) /
                   static_cast<double>(kContactBytes * pass_acked);
  m["peak_rss_mb"] = peak_rss_mb;
  m["generators.dataset_s"] = Median(generate_s);
  m["join.extract_s"] = Median(join_s);
  m["join.contacts"] = static_cast<double>(stream_contacts);
  m["storage.write_amp"] = static_cast<double>(stored_bytes) /
                           static_cast<double>(kContactBytes * pass_acked);
  m["stream.append_us_per_contact"] =
      Sum(best_ingest) * 1e3 / static_cast<double>(pass_acked);
  m["stream.seal_ms_p50"] = Percentile(seal_ms, 0.50);
  m["stream.seal_ms_p99"] = Percentile(seal_ms, 0.99);
  m["stream.seals"] = static_cast<double>(seal_at.size());
  m["stream.segments_per_query"] =
      static_cast<double>(segments_seen) / queries_sent;
  m["stream.head_contacts_per_query"] =
      static_cast<double>(head_seen) / queries_sent;
  m["stream.wal_bytes_per_contact"] =
      static_cast<double>(wal.size()) / static_cast<double>(pass_acked);
  m["stream.recover_s"] = recover_s;
  m["engine.job_ms_p50"] = Percentile(job_ms, 0.50);
  m["engine.job_ms_p99"] = Percentile(job_ms, 0.99);
  std::set<std::tuple<ObjectId, Timestamp, Timestamp>> seen;
  uint64_t keys = 0, repeats = 0;
  for (const QueryPoint& qp : query_points) {
    for (const ReachQuery& q : qp.points) {
      ++keys;
      if (!seen.insert({q.source, q.interval.start, q.interval.end}).second) {
        ++repeats;
      }
    }
  }
  m["engine.repeat_key_share"] =
      static_cast<double>(repeats) / static_cast<double>(keys);
  if (tracer->enabled()) {
    const std::vector<Span> spans = tracer->Spans();
    std::vector<double> calls = SpanMillis(spans, "stream.Query");
    const std::vector<double> batches =
        SpanMillis(spans, "stream.ReachableSets");
    calls.insert(calls.end(), batches.begin(), batches.end());
    m["stream.call_ms_p50"] = Percentile(calls, 0.50);
    m["stream.call_ms_p99"] = Percentile(calls, 0.99);
  }

  const uint64_t stored_pages =
      (stored_bytes + options.page_size - 1) / options.page_size;
  out.properties = {
      {"index_pages", std::to_string(stored_pages) + " sealed (" +
                          std::to_string(ingestor->sealed_segments()) +
                          " segments)"},
      {"pool_pages", std::to_string(options.buffer_pool_pages) +
                         " per segment per session"},
      {"engine.repeat_key_share", FormatValue(m["engine.repeat_key_share"])},
      {"stream.segments_per_query", FormatValue(m["stream.segments_per_query"])},
      {"threads", "1 client + 2 RunClosures workers"},
      {"passes", std::to_string(passes.size())},
  };
  return out;
}

}  // namespace perfbench
