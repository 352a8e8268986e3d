// Fault-injection sweep: query success under transient read faults as a
// function of fault rate x retry budget, plus the checksum tax the
// integrity layer charges for detecting the faults it cannot mask.
//
// Not a paper experiment — the paper assumes healthy media; this charts
// the robustness tier (PR 10): every cell attaches a deterministic
// seeded FaultInjector to the sealed segments of one streaming build,
// runs the workload with a given `max_read_retries`, and records how
// many queries failed, how many injected faults the retry loop masked,
// and whether every successfully answered query still matches the
// fault-free reference. The fault_rate=0 rows double as the checksum
// overhead measurement CI gates on (per-blob footer bytes / payload
// bytes must stay under 5%), and every row carries the checksum's CPU
// cost per KiB at the build's page size. docs/BENCH_SCHEMA.md documents
// every field.
//
// Set STREACH_BENCH_TINY=1 to run a reduced dataset — the CI bench-smoke
// configuration.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "storage/checksum.h"
#include "storage/fault_injector.h"
#include "stream/segmented_index.h"
#include "stream/streaming_ingestor.h"
#include "stream/streaming_options.h"

namespace streach {
namespace bench {
namespace {

// Every transient page fails this many attempts before healing, so a
// retry budget below it surfaces Unavailable and one at or above it
// masks the fault completely.
constexpr int kTransientFailures = 2;

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

StreamingOptions CellOptions() {
  StreamingOptions options;
  options.num_objects = Env().dataset.num_objects();
  options.span = Env().dataset.span();
  // Small pages so the sealed segments span enough distinct pages for
  // the per-page fault lottery to be a real sample, not 2-3 draws.
  options.page_size = 512;
  return options;
}

/// One streaming build shared by every cell: cells differ only in the
/// fault schedule attached at query time, never in the stored bytes.
const std::shared_ptr<StreamingIngestor>& Ingestor() {
  static const std::shared_ptr<StreamingIngestor> ingestor = [] {
    auto contacts =
        ExtractContacts(Env().dataset.store, Env().dataset.contact_range);
    // ContactSink emission order (runs grouped by close tick): the order
    // a real extraction would deliver, and the one the zero-lateness
    // watermark accepts.
    std::sort(contacts.begin(), contacts.end(),
              [](const Contact& x, const Contact& y) {
                return std::tie(x.validity.end, x.validity.start, x.a, x.b) <
                       std::tie(y.validity.end, y.validity.start, y.a, y.b);
              });
    auto result = StreamingIngestor::Create(CellOptions());
    STREACH_CHECK(result.ok());
    for (const Contact& c : contacts) {
      STREACH_CHECK((*result)->Append(c).ok());
    }
    STREACH_CHECK((*result)->SealRemaining().ok());
    return *result;
  }();
  return ingestor;
}

/// CPU cost of the checksum both integrity layers run on every read: the
/// least time, over `kPasses` passes, `Crc32c` takes per KiB over
/// buffers of the build's page size.
double ChecksumNsPerKib() {
  static const double ns_per_kib = [] {
    constexpr int kPasses = 50;
    constexpr size_t kBuffers = 256;
    const size_t page_size = CellOptions().page_size;
    std::string bytes(page_size * kBuffers, '\0');
    uint32_t x = 2463534242u;
    for (char& c : bytes) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      c = static_cast<char>(x);
    }
    const std::string_view all(bytes);
    uint32_t sink = 0;
    double best = std::numeric_limits<double>::infinity();
    for (int pass = 0; pass < kPasses; ++pass) {
      Stopwatch watch;
      for (size_t k = 0; k < kBuffers; ++k) {
        sink ^= Crc32c(all.substr(k * page_size, page_size));
      }
      best = std::min(best, watch.ElapsedSeconds());
    }
    benchmark::DoNotOptimize(sink);
    return best * 1e9 / (static_cast<double>(bytes.size()) / 1024.0);
  }();
  return ns_per_kib;
}

/// Workload answers with no injector attached: what every successfully
/// answered query must still return under faults.
const std::vector<ReachAnswer>& ReferenceAnswers() {
  static const std::vector<ReachAnswer>* answers = [] {
    auto backend = MakeStreamingBackend(Ingestor());
    auto report = QueryEngine().Run(backend.get(), Env().queries);
    STREACH_CHECK(report.ok());
    STREACH_CHECK(report->summary.failed_queries == 0);
    return new std::vector<ReachAnswer>(std::move(report->answers));
  }();
  return *answers;
}

struct Row {
  double fault_rate;
  int retries;
  uint64_t queries;
  uint64_t failed_queries;
  double success_rate;
  uint64_t transient_faults;
  uint64_t read_retries;
  bool ok_answers_match;
  uint64_t stored_bytes;
  uint64_t footer_bytes;
  uint64_t payload_bytes;
  double checksum_overhead;
  double checksum_ns_per_kib;
  double query_seconds;
};
std::vector<Row>& Rows() {
  static std::vector<Row> rows;
  return rows;
}

void FaultSweep(benchmark::State& state) {
  const double fault_rate = static_cast<double>(state.range(0)) / 1000.0;
  const int retries = static_cast<int>(state.range(1));

  FaultInjectorOptions fault_options;
  fault_options.seed = 20260808;
  fault_options.transient_rate = fault_rate;
  fault_options.transient_failures = kTransientFailures;
  FaultInjector injector(fault_options);

  const auto snapshot = Ingestor()->SnapshotFor(Env().dataset.span());
  uint64_t footer_bytes = 0;
  for (const auto& segment : snapshot.segments) {
    segment->topology().AttachFaultInjector(&injector);
    footer_bytes += segment->num_blocks() * kBlobChecksumBytes;
  }
  const uint64_t stored_bytes = Ingestor()->stored_bytes();
  const uint64_t payload_bytes = stored_bytes - footer_bytes;

  for (auto _ : state) {
    // Fresh backend per cell: cold buffer pools, so every cell pays the
    // same reads against the same deterministic fault schedule.
    auto backend = MakeStreamingBackend(Ingestor());
    QueryEngineOptions engine_options;
    engine_options.max_read_retries = retries;
    Stopwatch query_watch;
    auto report =
        QueryEngine(engine_options).Run(backend.get(), Env().queries);
    STREACH_CHECK(report.ok());
    const double query_seconds = query_watch.ElapsedSeconds();

    bool ok_answers_match = true;
    for (size_t i = 0; i < report->answers.size(); ++i) {
      if (!report->statuses[i].ok()) continue;
      if (report->answers[i].reachable != ReferenceAnswers()[i].reachable ||
          report->answers[i].arrival_time !=
              ReferenceAnswers()[i].arrival_time) {
        ok_answers_match = false;
      }
    }
    uint64_t read_retries = 0;
    for (const IoStats& s : backend->shard_io_stats()) {
      read_retries += s.read_retries;
    }
    const uint64_t queries = report->summary.num_queries;
    const uint64_t failed = report->summary.failed_queries;
    Rows().push_back(
        {fault_rate, retries, queries, failed,
         queries > 0
             ? static_cast<double>(queries - failed) / static_cast<double>(
                                                           queries)
             : 0.0,
         injector.transient_injected(), read_retries, ok_answers_match,
         stored_bytes, footer_bytes, payload_bytes,
         payload_bytes > 0 ? static_cast<double>(footer_bytes) /
                                 static_cast<double>(payload_bytes)
                           : 0.0,
         ChecksumNsPerKib(), query_seconds});
  }

  for (const auto& segment : snapshot.segments) {
    segment->topology().AttachFaultInjector(nullptr);
  }
}

// rate: transient fault rate in thousandths (0 = healthy media);
// retries: BufferPool retry budget — kTransientFailures (2) per page, so
// 3 masks every transient and 0/1 surface some as Unavailable.
BENCHMARK(FaultSweep)
    ->ArgsProduct({{0, 100, 300}, {0, 1, 3}})
    ->ArgNames({"rate", "retries"})
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
        "  {\"fault_rate\": %.3f, \"retries\": %d, \"queries\": %llu, "
        "\"failed_queries\": %llu, \"success_rate\": %.4f, "
        "\"transient_faults\": %llu, \"read_retries\": %llu, "
        "\"ok_answers_match\": %s, \"stored_bytes\": %llu, "
        "\"footer_bytes\": %llu, \"payload_bytes\": %llu, "
        "\"checksum_overhead\": %.6f, \"checksum_ns_per_kib\": %.3f, "
        "\"query_seconds\": %.6f}%s\n",
        r.fault_rate, r.retries, static_cast<unsigned long long>(r.queries),
        static_cast<unsigned long long>(r.failed_queries), r.success_rate,
        static_cast<unsigned long long>(r.transient_faults),
        static_cast<unsigned long long>(r.read_retries),
        r.ok_answers_match ? "true" : "false",
        static_cast<unsigned long long>(r.stored_bytes),
        static_cast<unsigned long long>(r.footer_bytes),
        static_cast<unsigned long long>(r.payload_bytes),
        r.checksum_overhead, r.checksum_ns_per_kib, r.query_seconds,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

}  // namespace

void PrintFaultTable() {
  std::printf("\n%-6s %8s %8s %7s %8s %8s %8s %6s %9s %10s\n", "Rate",
              "Retries", "Queries", "Failed", "Faults", "Reissue", "match",
              "tax%", "ns/KiB", "query(ms)");
  for (const Row& r : Rows()) {
    std::printf("%-6.2f %8d %8llu %7llu %8llu %8llu %8s %6.2f %9.1f %10.2f\n",
                r.fault_rate, r.retries,
                static_cast<unsigned long long>(r.queries),
                static_cast<unsigned long long>(r.failed_queries),
                static_cast<unsigned long long>(r.transient_faults),
                static_cast<unsigned long long>(r.read_retries),
                r.ok_answers_match ? "yes" : "NO",
                r.checksum_overhead * 100.0, r.checksum_ns_per_kib,
                r.query_seconds * 1e3);
  }
  WriteJson("BENCH_fault_injection.json");
  std::printf("Wrote BENCH_fault_injection.json (%zu cells)\n",
              Rows().size());
}

}  // namespace bench
}  // namespace streach

int main(int argc, char** argv) {
  streach::bench::PrintHeader(
      "Fault injection — query success and retry masking under transient "
      "read-fault rate x retry budget, plus per-blob checksum overhead",
      "(beyond the paper) a bounded retry budget masks transient storage "
      "faults completely, surfaced faults fail only their own query, and "
      "the integrity footers cost well under 5% of stored bytes");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  streach::bench::PrintFaultTable();
  return 0;
}
