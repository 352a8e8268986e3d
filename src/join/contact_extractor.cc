#include "join/contact_extractor.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace streach {

namespace {

uint64_t PairKey(ObjectId a, ObjectId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// Auto chunking never slices finer than this: a chunk shorter than a few
/// dozen ticks costs more in worker wakeup + boundary stitching than the
/// scan itself, so small windows fall back to the sequential pass.
constexpr int64_t kMinAutoChunkTicks = 16;

/// A maximal in-contact run within one scanned (sub-)window.
struct Run {
  ObjectId a;
  ObjectId b;
  Timestamp start;
  Timestamp end;
};

/// The ContactSink delivery order: close tick, then start, then pair.
bool CloseOrder(const Contact& x, const Contact& y) {
  return std::tie(x.validity.end, x.validity.start, x.a, x.b) <
         std::tie(y.validity.end, y.validity.start, y.a, y.b);
}

/// The historical per-tick scan of `w`: gathers each tick's positions
/// into one reused buffer, joins them, coalesces runs through an
/// open-run map, and calls `emit(a, b, start, end)` for every maximal
/// run. Runs are emitted in nondecreasing `end` order (a run is emitted
/// the moment the scan proves the pair left contact); order within one
/// close tick is hash order — callers sort.
template <typename Emit>
void ScanWindow(const TrajectoryStore& store, ProximityJoiner* joiner,
                TimeInterval w, const Emit& emit) {
  std::unordered_map<uint64_t, Timestamp> open;
  std::unordered_map<uint64_t, Timestamp> still_open;
  std::vector<Point> positions;
  for (Timestamp t = w.start; t <= w.end; ++t) {
    still_open.clear();
    store.GatherPositionsAt(t, &positions);
    for (const auto& [a, b] : joiner->PairsAmong(positions)) {
      const uint64_t key = PairKey(a, b);
      auto it = open.find(key);
      if (it != open.end()) {
        still_open.emplace(key, it->second);
        open.erase(it);
      } else {
        still_open.emplace(key, t);
      }
    }
    // Whatever remains in `open` ended at t-1.
    for (const auto& [key, start] : open) {
      emit(static_cast<ObjectId>(key >> 32),
           static_cast<ObjectId>(key & 0xFFFFFFFFu), start,
           static_cast<Timestamp>(t - 1));
    }
    std::swap(open, still_open);
  }
  for (const auto& [key, start] : open) {
    emit(static_cast<ObjectId>(key >> 32),
         static_cast<ObjectId>(key & 0xFFFFFFFFu), start, w.end);
  }
}

/// Routes emitted contacts to the materializing vector and/or the
/// streaming sink. Sink delivery buffers into a batch that is flushed in
/// CloseOrder — per close tick on the sequential path
/// (`flush_on_end_change`), per stitched chunk on the chunked path; both
/// yield the same globally CloseOrder-sorted stream, which is what makes
/// the sink sequence independent of threads and chunking.
struct EmitTarget {
  std::vector<Contact>* out = nullptr;
  ContactSink* sink = nullptr;
  bool flush_on_end_change = false;
  std::vector<Contact> batch;

  void Add(ObjectId a, ObjectId b, Timestamp start, Timestamp end) {
    if (out != nullptr) out->emplace_back(a, b, TimeInterval(start, end));
    if (sink != nullptr) {
      if (flush_on_end_change && !batch.empty() &&
          batch.back().validity.end != end) {
        FlushBatch();
      }
      batch.emplace_back(a, b, TimeInterval(start, end));
    }
  }

  void FlushBatch() {
    if (sink == nullptr || batch.empty()) return;
    std::sort(batch.begin(), batch.end(), CloseOrder);
    for (const Contact& c : batch) sink->OnContact(c);
    batch.clear();
  }

  void Finish() {
    FlushBatch();
    if (sink != nullptr) sink->OnFinish();
  }
};

void ExtractContactsImpl(const TrajectoryStore& store, double dt,
                         TimeInterval window, const JoinOptions& options,
                         std::vector<Contact>* out, ContactSink* sink) {
  EmitTarget target;
  target.out = out;
  target.sink = sink;
  const TimeInterval w = window.Intersect(store.span());
  if (w.empty() || store.num_objects() < 2) {
    target.Finish();
    return;
  }

  const int threads = std::max(1, options.threads);
  const int64_t ticks = w.length();
  int64_t chunk_ticks = options.chunk_ticks;
  if (chunk_ticks <= 0) {
    // Auto: ~2 chunks per worker for rebalance, floored so short windows
    // stay on the sequential pass.
    chunk_ticks = threads > 1
                      ? std::max<int64_t>(
                            kMinAutoChunkTicks,
                            (ticks + threads * 2 - 1) / (threads * 2))
                      : ticks;
  }
  const int num_chunks =
      static_cast<int>((ticks + chunk_ticks - 1) / chunk_ticks);

  const Rect extent = ProximityJoiner::EnvironmentExtent(store);
  if (num_chunks <= 1) {
    // The historical single-pass path; the sink (if any) is fed tick by
    // tick as runs close.
    target.flush_on_end_change = true;
    ProximityJoiner joiner(dt, extent);
    ScanWindow(store, &joiner, w,
               [&](ObjectId a, ObjectId b, Timestamp start, Timestamp end) {
                 target.Add(a, b, start, end);
               });
    if (out != nullptr) std::sort(out->begin(), out->end());
    target.Finish();
    return;
  }

  // 1. Scan every chunk independently (in parallel past one thread);
  // each chunk yields its runs, with runs touching a chunk boundary
  // recognizable by start/end lying on it.
  std::vector<TimeInterval> chunks(static_cast<size_t>(num_chunks));
  for (int c = 0; c < num_chunks; ++c) {
    chunks[static_cast<size_t>(c)] = TimeInterval(
        static_cast<Timestamp>(w.start + c * chunk_ticks),
        static_cast<Timestamp>(std::min<int64_t>(
            w.end, w.start + (c + 1) * chunk_ticks - 1)));
  }
  // Each worker owns one joiner (grid scratch + cell list) and claims
  // chunks off one shared counter; a chunk's runs land in its own slot.
  std::vector<std::vector<Run>> chunk_runs(chunks.size());
  std::atomic<size_t> next_chunk{0};
  auto scan_chunks = [&]() {
    ProximityJoiner joiner(dt, extent);
    for (size_t c = next_chunk++; c < chunks.size(); c = next_chunk++) {
      ScanWindow(store, &joiner, chunks[c],
                 [&chunk_runs, c](ObjectId a, ObjectId b, Timestamp start,
                                  Timestamp end) {
                   chunk_runs[c].push_back({a, b, start, end});
                 });
    }
  };
  const size_t workers = std::min(static_cast<size_t>(threads), chunks.size());
  std::vector<std::thread> helpers;
  helpers.reserve(workers - 1);
  for (size_t k = 1; k < workers; ++k) helpers.emplace_back(scan_chunks);
  scan_chunks();  // The caller is the first worker.
  for (std::thread& helper : helpers) helper.join();

  // 2. Stitch, in time order: a run ending exactly on a chunk's last
  // tick continues iff the same pair has a run starting on the next
  // chunk's first tick; everything else passes through unchanged. Only
  // boundary-spanning pairs ever enter the open map, so this pass is
  // tiny next to the scans.
  std::unordered_map<uint64_t, Timestamp> open;   // pair -> stitched start
  std::unordered_map<uint64_t, size_t> heads;     // pair -> head-run index
  std::vector<bool> consumed;
  for (size_t c = 0; c < chunks.size(); ++c) {
    const TimeInterval cw = chunks[c];
    const bool last = c + 1 == chunks.size();
    const std::vector<Run>& runs = chunk_runs[c];
    heads.clear();
    for (size_t i = 0; i < runs.size(); ++i) {
      if (runs[i].start == cw.start) {
        heads.emplace(PairKey(runs[i].a, runs[i].b), i);
      }
    }
    consumed.assign(runs.size(), false);
    std::unordered_map<uint64_t, Timestamp> next_open;
    for (const auto& [key, start] : open) {
      const ObjectId a = static_cast<ObjectId>(key >> 32);
      const ObjectId b = static_cast<ObjectId>(key & 0xFFFFFFFFu);
      const auto it = heads.find(key);
      if (it == heads.end()) {
        // No continuation: the run genuinely closed at the boundary.
        target.Add(a, b, start, chunks[c - 1].end);
        continue;
      }
      const Run& r = runs[it->second];
      consumed[it->second] = true;
      if (!last && r.end == cw.end) {
        next_open.emplace(key, start);
      } else {
        target.Add(a, b, start, r.end);
      }
    }
    for (size_t i = 0; i < runs.size(); ++i) {
      if (consumed[i]) continue;
      const Run& r = runs[i];
      if (!last && r.end == cw.end) {
        next_open.emplace(PairKey(r.a, r.b), r.start);
      } else {
        target.Add(r.a, r.b, r.start, r.end);
      }
    }
    open = std::move(next_open);
    target.FlushBatch();
  }
  STREACH_CHECK(open.empty());
  if (out != nullptr) std::sort(out->begin(), out->end());
  target.Finish();
}

}  // namespace

std::vector<Contact> ExtractContacts(const TrajectoryStore& store, double dt,
                                     TimeInterval window,
                                     const JoinOptions& options) {
  std::vector<Contact> contacts;
  ExtractContactsImpl(store, dt, window, options, &contacts, nullptr);
  return contacts;
}

std::vector<Contact> ExtractContacts(const TrajectoryStore& store, double dt,
                                     TimeInterval window) {
  return ExtractContacts(store, dt, window, JoinOptions());
}

std::vector<Contact> ExtractContacts(const TrajectoryStore& store, double dt,
                                     const JoinOptions& options) {
  return ExtractContacts(store, dt, store.span(), options);
}

std::vector<Contact> ExtractContacts(const TrajectoryStore& store, double dt) {
  return ExtractContacts(store, dt, store.span(), JoinOptions());
}

void ExtractContactsTo(const TrajectoryStore& store, double dt,
                       TimeInterval window, const JoinOptions& options,
                       ContactSink* sink) {
  STREACH_CHECK(sink != nullptr);
  ExtractContactsImpl(store, dt, window, options, nullptr, sink);
}

}  // namespace streach
