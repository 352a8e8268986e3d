#ifndef STREACH_STREAM_SEGMENTED_INDEX_H_
#define STREACH_STREAM_SEGMENTED_INDEX_H_

#include <memory>

#include "engine/reachability_index.h"
#include "stream/streaming_ingestor.h"

namespace streach {

/// \brief A `ReachabilityIndex` session over a live streaming ingestor.
///
/// A query over `[t1, t2]` snapshots the ingestor (the sealed segments
/// overlapping the interval, pinned, plus copies of the overlapping head
/// runs), loads each segment's candidate blocks through a private
/// per-segment buffer pool, and appends every overlapping contact to one
/// list. A closure is one earliest-arrival temporal Dijkstra per source
/// over that list: an item crosses a whole same-tick contact component
/// within one tick and otherwise only moves forward in time, so one sweep
/// over the window is exact. Every contact run is wholly owned by exactly
/// one segment, so the list holds the same contacts under any append
/// order and seal schedule, and each of them answers byte-identically to
/// a one-shot batch build.
///
/// Sessions follow the engine contract: one private set of buffer pools
/// and one stats slot per session, `NewSession()` for concurrent workers.
/// `IndexIdentity()` is null — the index is mutable (appends land between
/// queries), so memoized result-cache answers would go stale.
///
/// `MakeStreamingBackend` is the factory; the session shares ownership of
/// the ingestor, so it stays valid however long queries keep running.
std::unique_ptr<ReachabilityIndex> MakeStreamingBackend(
    std::shared_ptr<const StreamingIngestor> ingestor);

}  // namespace streach

#endif  // STREACH_STREAM_SEGMENTED_INDEX_H_
