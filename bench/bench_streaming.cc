// Streaming-ingestion sweep: append throughput of the mutable head and
// the seal pipeline under seal_interval x num_shards x page codec, plus
// the equivalence flag CI gates on — every cell's SegmentedIndex must
// answer the workload byte-identically to a one-shot batch build.
//
// Not a paper experiment — the paper builds its indexes offline; this
// charts the live tier (PR 6): contacts stream into the head segment and
// watermark-gated seals push closed prefixes through the batch write
// stack. Smaller seal intervals mean more (smaller) sealed segments, so a
// query loads its window's contact list from more segments; it still
// sweeps that list once, and neither the answers nor the contacts
// scanned move, which is exactly what the emitted BENCH_streaming.json
// records per cell. docs/BENCH_SCHEMA.md documents every field.
//
// Set STREACH_BENCH_TINY=1 to run a reduced dataset — the CI bench-smoke
// configuration.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "stream/segmented_index.h"
#include "stream/streaming_ingestor.h"
#include "stream/streaming_options.h"

namespace streach {
namespace bench {
namespace {

bool TinyMode() {
  const char* tiny = std::getenv("STREACH_BENCH_TINY");
  return tiny != nullptr && tiny[0] != '\0' && tiny[0] != '0';
}

BenchEnv& Env() {
  static BenchEnv env =
      TinyMode() ? MakeEnv("RWP", DatasetScale::kSmall,
                           /*duration=*/300, /*num_queries=*/40,
                           /*min_interval=*/50, /*max_interval=*/200,
                           /*build_network=*/false)
                 : MakeEnv("RWP", DatasetScale::kMedium,
                           /*duration=*/1000, /*num_queries=*/200,
                           /*min_interval=*/150, /*max_interval=*/350,
                           /*build_network=*/false);
  return env;
}

/// The stream every cell ingests: the dataset's contacts in ContactSink
/// emission order (runs grouped by close tick) — what ExtractContactsTo
/// would deliver, extracted once so cells time the streaming tier, not
/// the join.
const std::vector<Contact>& Arrivals() {
  static const std::vector<Contact>* arrivals = [] {
    auto* contacts = new std::vector<Contact>(ExtractContacts(
        Env().dataset.store, Env().dataset.contact_range));
    std::sort(contacts->begin(), contacts->end(),
              [](const Contact& x, const Contact& y) {
                return std::tie(x.validity.end, x.validity.start, x.a, x.b) <
                       std::tie(y.validity.end, y.validity.start, y.a, y.b);
              });
    return contacts;
  }();
  return *arrivals;
}

/// Workload answers from a one-shot batch build (one seal covering the
/// whole span): the equality reference every cell is checked against.
const std::vector<ReachAnswer>& ReferenceAnswers() {
  static const std::vector<ReachAnswer>* answers = [] {
    StreamingOptions options;
    options.num_objects = Env().dataset.num_objects();
    options.span = Env().dataset.span();
    options.seal_interval_ticks =
        static_cast<int>(Env().dataset.span().length());
    auto ingestor = StreamingIngestor::Create(options);
    STREACH_CHECK(ingestor.ok());
    for (const Contact& c : Arrivals()) {
      STREACH_CHECK((*ingestor)->Append(c).ok());
    }
    STREACH_CHECK((*ingestor)->SealRemaining().ok());
    auto backend = MakeStreamingBackend(*ingestor);
    auto report = QueryEngine().Run(backend.get(), Env().queries);
    STREACH_CHECK(report.ok());
    return new std::vector<ReachAnswer>(std::move(report->answers));
  }();
  return *answers;
}

bool SameAnswers(const std::vector<ReachAnswer>& a,
                 const std::vector<ReachAnswer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].reachable != b[i].reachable ||
        a[i].arrival_time != b[i].arrival_time) {
      return false;
    }
  }
  return true;
}

struct Row {
  int seal_interval;
  int shards;
  std::string codec;
  uint64_t contacts;
  double ingest_seconds;
  double contacts_per_sec;
  uint64_t sealed_segments;
  uint64_t sealed_contacts;
  uint64_t head_contacts;
  uint64_t stored_bytes;
  bool matches_batch;
  uint64_t contacts_scanned;
  double query_seconds;
};
std::vector<Row>& Rows() {
  static std::vector<Row> rows;
  return rows;
}

void StreamingIngest(benchmark::State& state) {
  const PageCodecKind codec = state.range(2) == 0
                                  ? PageCodecKind::kRaw
                                  : PageCodecKind::kDeltaVarint;
  StreamingOptions options;
  options.num_objects = Env().dataset.num_objects();
  options.span = Env().dataset.span();
  options.seal_interval_ticks = static_cast<int>(state.range(0));
  options.num_shards = static_cast<int>(state.range(1));
  options.build.page_codec = codec;
  for (auto _ : state) {
    auto ingestor = StreamingIngestor::Create(options);
    STREACH_CHECK(ingestor.ok());
    Stopwatch ingest_watch;
    for (const Contact& c : Arrivals()) {
      STREACH_CHECK((*ingestor)->Append(c).ok());
    }
    STREACH_CHECK((*ingestor)->SealRemaining().ok());
    const double ingest_seconds = ingest_watch.ElapsedSeconds();

    auto backend = MakeStreamingBackend(*ingestor);
    QueryEngineOptions engine_options;
    engine_options.page_codec = codec;
    Stopwatch query_watch;
    auto report =
        QueryEngine(engine_options).Run(backend.get(), Env().queries);
    STREACH_CHECK(report.ok());
    const double query_seconds = query_watch.ElapsedSeconds();

    const uint64_t contacts = (*ingestor)->appended_contacts();
    Rows().push_back(
        {options.seal_interval_ticks, options.num_shards, ToString(codec),
         contacts, ingest_seconds,
         ingest_seconds > 0 ? contacts / ingest_seconds : 0.0,
         (*ingestor)->sealed_segments(), (*ingestor)->sealed_contacts(),
         (*ingestor)->head_contacts(), (*ingestor)->stored_bytes(),
         SameAnswers(report->answers, ReferenceAnswers()),
         report->summary.total_items_visited, query_seconds});
  }
}

// seal: ticks of stream time per sealed segment; codec: 0 = raw,
// 1 = delta-varint.
BENCHMARK(StreamingIngest)
    ->ArgsProduct({{16, 64, 256}, {1, 4}, {0, 1}})
    ->ArgNames({"seal", "shards", "codec"})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void WriteJson(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  const auto& rows = Rows();
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "  {\"seal_interval\": %d, \"shards\": %d, \"codec\": \"%s\", "
        "\"contacts\": %llu, \"ingest_seconds\": %.6f, "
        "\"contacts_per_sec\": %.1f, \"sealed_segments\": %llu, "
        "\"sealed_contacts\": %llu, \"head_contacts\": %llu, "
        "\"stored_bytes\": %llu, \"matches_batch\": %s, "
        "\"contacts_scanned\": %llu, \"query_seconds\": %.6f}%s\n",
        r.seal_interval, r.shards, r.codec.c_str(),
        static_cast<unsigned long long>(r.contacts), r.ingest_seconds,
        r.contacts_per_sec,
        static_cast<unsigned long long>(r.sealed_segments),
        static_cast<unsigned long long>(r.sealed_contacts),
        static_cast<unsigned long long>(r.head_contacts),
        static_cast<unsigned long long>(r.stored_bytes),
        r.matches_batch ? "true" : "false",
        static_cast<unsigned long long>(r.contacts_scanned), r.query_seconds,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

}  // namespace

void PrintStreamingTable() {
  std::printf("\n%-6s %7s %8s %10s %12s %9s %12s %8s %10s\n", "Seal",
              "Shards", "Codec", "Contacts", "ingest/s", "Segments",
              "stored(B)", "match", "query(ms)");
  for (const Row& r : Rows()) {
    std::printf("%-6d %7d %8s %10llu %12.0f %9llu %12llu %8s %10.2f\n",
                r.seal_interval, r.shards, r.codec.c_str(),
                static_cast<unsigned long long>(r.contacts),
                r.contacts_per_sec,
                static_cast<unsigned long long>(r.sealed_segments),
                static_cast<unsigned long long>(r.stored_bytes),
                r.matches_batch ? "yes" : "NO", r.query_seconds * 1e3);
  }
  WriteJson("BENCH_streaming.json");
  std::printf("Wrote BENCH_streaming.json (%zu cells)\n", Rows().size());
}

}  // namespace bench
}  // namespace streach

int main(int argc, char** argv) {
  streach::bench::PrintHeader(
      "Streaming ingestion — head-segment append throughput and sealed "
      "query equivalence under seal_interval x shards x codec",
      "(beyond the paper) an LSM-style mutable head absorbs the contact "
      "stream and seals through the batch write stack without changing "
      "a single answer");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  streach::bench::PrintStreamingTable();
  return 0;
}
