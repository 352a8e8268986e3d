// Contact-extraction front-end scaling sweep: wall time of the
// CSR-cell-list proximity join under objects x join_threads x dT,
// against the seed joiner (per-cell vector buckets, per-object position
// lookups, single-threaded scan) rebuilt here as the baseline.
//
// Not a paper experiment — this charts the front end that feeds every
// index build (PR 7): the flat cell list removes the per-cell/per-tick
// allocation churn of the seed joiner, and the time-slice chunked scan
// spreads the per-tick sweeps across join_threads workers. Every cell
// STREACH_CHECKs that the extracted contact set is identical to the
// seed baseline — only wall time moves, which is exactly what the
// emitted BENCH_join_scaling.json records. On a single-core host the
// join_threads axis is flat; run on a multi-core box to chart the
// extraction speedup. docs/BENCH_SCHEMA.md documents every field.
//
// Set STREACH_BENCH_TINY=1 to run a reduced dataset — the CI bench-smoke
// configuration.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "generators/random_waypoint.h"
#include "join/contact_extractor.h"
#include "spatial/grid2d.h"

namespace streach {
namespace bench {
namespace {

bool TinyMode() {
  const char* tiny = std::getenv("STREACH_BENCH_TINY");
  return tiny != nullptr && tiny[0] != '\0' && tiny[0] != '0';
}

const std::vector<int>& ObjectCounts() {
  static const std::vector<int> tiny = {100, 200};
  static const std::vector<int> full = {400, 800, 1600};
  return TinyMode() ? tiny : full;
}

Timestamp Duration() { return TinyMode() ? 150 : 300; }

const std::vector<double>& ContactRanges() {
  // Half and full Bluetooth range (the RWP dT of §6).
  static const std::vector<double> ranges = {12.5, 25.0};
  return ranges;
}

/// One store per object count, generated once per process. All counts
/// share the environment, so the objects axis sweeps density too (the
/// paper's RWP10k/20k/40k keep E fixed the same way).
const TrajectoryStore& Store(int objects) {
  static std::map<int, TrajectoryStore>* stores =
      new std::map<int, TrajectoryStore>();
  auto it = stores->find(objects);
  if (it == stores->end()) {
    RandomWaypointParams params;
    params.num_objects = objects;
    params.area = TinyMode() ? Rect(0, 0, 500, 500) : Rect(0, 0, 2000, 2000);
    params.duration = Duration();
    params.seed = 42;
    auto store = GenerateRandomWaypoint(params);
    STREACH_CHECK(store.ok());
    it = stores->emplace(objects, std::move(store).ValueUnsafe()).first;
  }
  return it->second;
}

/// The seed joiner, reproduced from the pre-PR-7 sources: per-cell
/// vector buckets refilled every tick (no tick cache), per-object
/// PositionAt lookups with their bounds check apiece, sequential sweep
/// over the used buckets, per-tick pair sort, open-map run coalescing.
/// This is the front end the CSR cell list replaces — kept here as the
/// measured baseline and the correctness oracle.
std::vector<Contact> SeedExtractContacts(const TrajectoryStore& store,
                                         double dt) {
  std::vector<Contact> contacts;
  if (store.num_objects() < 2 || store.span().empty()) return contacts;
  Rect extent = store.ComputeExtent();
  if (extent.Width() <= 0.0 || extent.Height() <= 0.0) {
    extent = extent.Padded(1.0);
  }
  const UniformGrid2D grid(extent, dt);
  const double dt_sq = dt * dt;
  std::vector<std::vector<ObjectId>> buckets(grid.num_cells());
  std::vector<CellId> used_buckets;
  std::unordered_map<uint64_t, Timestamp> open;
  std::unordered_map<uint64_t, Timestamp> still_open;
  const TimeInterval w = store.span();
  for (Timestamp t = w.start; t <= w.end; ++t) {
    for (CellId c : used_buckets) buckets[c].clear();
    used_buckets.clear();
    for (ObjectId o = 0; o < store.num_objects(); ++o) {
      const CellId c = grid.CellOf(store.PositionAt(o, t));
      if (buckets[c].empty()) used_buckets.push_back(c);
      buckets[c].push_back(o);
    }
    std::vector<std::pair<ObjectId, ObjectId>> pairs;
    static constexpr int kForward[4][2] = {{0, 1}, {1, -1}, {1, 0}, {1, 1}};
    for (CellId cell : used_buckets) {
      const auto& mine = buckets[cell];
      for (size_t i = 0; i < mine.size(); ++i) {
        const Point& pa = store.PositionAt(mine[i], t);
        for (size_t j = i + 1; j < mine.size(); ++j) {
          if (Point::DistanceSquared(pa, store.PositionAt(mine[j], t)) <
              dt_sq) {
            pairs.emplace_back(std::min(mine[i], mine[j]),
                               std::max(mine[i], mine[j]));
          }
        }
      }
      const int row = grid.RowOfCell(cell);
      const int col = grid.ColOfCell(cell);
      for (const auto& d : kForward) {
        const int nr = row + d[0];
        const int nc = col + d[1];
        if (nr < 0 || nr >= grid.rows() || nc < 0 || nc >= grid.cols()) {
          continue;
        }
        const auto& theirs = buckets[grid.CellAt(nr, nc)];
        for (ObjectId a : mine) {
          const Point& pa = store.PositionAt(a, t);
          for (ObjectId b : theirs) {
            if (Point::DistanceSquared(pa, store.PositionAt(b, t)) < dt_sq) {
              pairs.emplace_back(std::min(a, b), std::max(a, b));
            }
          }
        }
      }
    }
    std::sort(pairs.begin(), pairs.end());
    still_open.clear();
    for (const auto& [a, b] : pairs) {
      const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
      auto it = open.find(key);
      if (it != open.end()) {
        still_open.emplace(key, it->second);
        open.erase(it);
      } else {
        still_open.emplace(key, t);
      }
    }
    for (const auto& [key, start] : open) {
      contacts.emplace_back(static_cast<ObjectId>(key >> 32),
                            static_cast<ObjectId>(key & 0xFFFFFFFFu),
                            TimeInterval(start, t - 1));
    }
    std::swap(open, still_open);
  }
  for (const auto& [key, start] : open) {
    contacts.emplace_back(static_cast<ObjectId>(key >> 32),
                          static_cast<ObjectId>(key & 0xFFFFFFFFu),
                          TimeInterval(start, w.end));
  }
  std::sort(contacts.begin(), contacts.end());
  return contacts;
}

struct Row {
  int objects;
  int64_t ticks;
  double dt;
  int join_threads;
  double extract_seconds;
  double ticks_per_sec;
  size_t contacts;
  double seed_seconds;
  unsigned hardware_concurrency;
};
std::vector<Row>& Rows() {
  static std::vector<Row> rows;
  return rows;
}

/// Join thread counts every (objects, dT) cell times.
constexpr int kJoinThreads[] = {1, 2, 4};
constexpr size_t kNumJoinThreads = sizeof(kJoinThreads) / sizeof(int);

/// Rounds per cell: at least `kMinShots`, and more until every timed
/// configuration has spent `kMinCellSeconds`. Single-shot wall times at
/// smoke scale are dominated by first-touch page faults and scheduler
/// noise, and a tiny cell's extraction takes under 2 ms, so five shots
/// can all land in one noisy stretch; the minimum over enough shots to
/// fill some tens of ms is the stable figure.
constexpr int kMinShots = 5;
constexpr double kMinCellSeconds = 0.05;

void JoinScaling(benchmark::State& state) {
  const int objects = ObjectCounts()[static_cast<size_t>(state.range(0))];
  const double dt = ContactRanges()[static_cast<size_t>(state.range(1))];
  const TrajectoryStore& store = Store(objects);
  for (auto _ : state) {
    // Each round shoots the seed joiner, then the CSR join at every
    // thread count, so every minimum — and so the CSR-vs-seed and
    // thread-scaling comparisons CI makes between them — comes from the
    // same machine conditions, not from cells run seconds apart.
    double seed_seconds = 0.0;
    double least_spent = 0.0;
    std::vector<Contact> seed_contacts;
    double seconds[kNumJoinThreads] = {};
    double spent[kNumJoinThreads + 1] = {};  // Last slot: the seed.
    for (int rep = 0; rep < kMinShots || least_spent < kMinCellSeconds;
         ++rep) {
      Stopwatch seed_timer;
      seed_contacts = SeedExtractContacts(store, dt);
      const double seed_elapsed = seed_timer.ElapsedSeconds();
      if (rep == 0 || seed_elapsed < seed_seconds) seed_seconds = seed_elapsed;
      spent[kNumJoinThreads] += seed_elapsed;
      for (size_t k = 0; k < kNumJoinThreads; ++k) {
        JoinOptions options;
        options.threads = kJoinThreads[k];
        Stopwatch timer;
        const std::vector<Contact> contacts =
            ExtractContacts(store, dt, options);
        const double elapsed = timer.ElapsedSeconds();
        // The front-end contract: same contacts at every configuration.
        STREACH_CHECK(contacts == seed_contacts);
        if (rep == 0 || elapsed < seconds[k]) seconds[k] = elapsed;
        spent[k] += elapsed;
      }
      least_spent = *std::min_element(spent, spent + kNumJoinThreads + 1);
    }
    const int64_t ticks = store.span().length();
    for (size_t k = 0; k < kNumJoinThreads; ++k) {
      Rows().push_back({objects, ticks, dt, kJoinThreads[k], seconds[k],
                        seconds[k] > 0 ? ticks / seconds[k] : 0.0,
                        seed_contacts.size(), seed_seconds,
                        std::thread::hardware_concurrency()});
    }
  }
}

BENCHMARK(JoinScaling)
    ->ArgsProduct({
        benchmark::CreateDenseRange(
            0, static_cast<int64_t>(ObjectCounts().size()) - 1, 1),
        benchmark::CreateDenseRange(
            0, static_cast<int64_t>(ContactRanges().size()) - 1, 1),
    })
    ->ArgNames({"objects_idx", "dt_idx"})
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
        "  {\"objects\": %d, \"ticks\": %lld, \"dt\": %.2f, "
        "\"join_threads\": %d, \"extract_seconds\": %.6f, "
        "\"ticks_per_sec\": %.1f, \"contacts\": %zu, "
        "\"seed_seconds\": %.6f, \"hardware_concurrency\": %u}%s\n",
        r.objects, static_cast<long long>(r.ticks), r.dt, r.join_threads,
        r.extract_seconds, r.ticks_per_sec, r.contacts, r.seed_seconds,
        r.hardware_concurrency, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

}  // namespace

void PrintJoinTable() {
  std::printf("\n%-8s %6s %8s %8s %12s %12s %10s %12s\n", "Objects", "dT",
              "Threads", "Ticks", "extract(ms)", "seed(ms)", "Contacts",
              "ticks/sec");
  for (const Row& r : Rows()) {
    std::printf("%-8d %6.1f %8d %8lld %12.2f %12.2f %10zu %12.0f\n",
                r.objects, r.dt, r.join_threads,
                static_cast<long long>(r.ticks), r.extract_seconds * 1e3,
                r.seed_seconds * 1e3, r.contacts, r.ticks_per_sec);
  }
  WriteJson("BENCH_join_scaling.json");
  std::printf("Wrote BENCH_join_scaling.json (%zu cells)\n", Rows().size());
}

}  // namespace bench
}  // namespace streach

int main(int argc, char** argv) {
  streach::bench::PrintHeader(
      "Join scaling — contact-extraction wall time under objects x "
      "join_threads x dT",
      "(beyond the paper) the CSR cell-list join beats the seed joiner "
      "at every scale and the chunked scan parallelizes across "
      "join_threads without changing a single contact");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  streach::bench::PrintJoinTable();
  return 0;
}
