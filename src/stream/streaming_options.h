#ifndef STREACH_STREAM_STREAMING_OPTIONS_H_
#define STREACH_STREAM_STREAMING_OPTIONS_H_

#include <cstddef>

#include "common/status.h"
#include "common/types.h"
#include "storage/block_device.h"
#include "storage/build_options.h"

namespace streach {

/// \brief Configuration of the streaming-ingestion tier (head segment,
/// seal schedule, and the storage stack every sealed unit is built with).
///
/// The streaming tier is LSM-shaped: appended contacts land in a mutable
/// in-memory head segment, and once the lateness horizon guarantees a
/// prefix of the stream can no longer change, that prefix *seals* into an
/// immutable on-disk segment built through the same sharded extent
/// writer / build-worker / page-codec stack as the batch index families.
/// Two knobs govern the lifecycle:
///
///  * `seal_interval_ticks` — how much stream time a sealed segment
///    covers. Every time the lateness watermark crosses a boundary of
///    this grid, the closed prefix of the head is sealed automatically.
///  * `max_lateness_ticks` — the arrival-disorder bound: an appended
///    contact's run may close up to this many ticks *before* the latest
///    close tick already seen. Contacts later than that are rejected
///    (they would land below the seal line). 0 matches `ContactSink`'s
///    emission contract, which delivers runs ordered by close tick.
///
/// Answers never depend on either knob: any append order within the
/// lateness bound and any seal schedule yields byte-identical query
/// results (the invariant `streaming_test` drives across the whole
/// lattice): every contact run is wholly owned by exactly one segment,
/// so a query window's contact list, which its closure sweeps once, is
/// the same under any segmentation.
struct StreamingOptions {
  /// Objects are densely numbered [0, num_objects); appends naming an
  /// object outside the range are rejected.
  size_t num_objects = 0;

  /// Stream time domain; contact validity intervals must fall inside it.
  TimeInterval span;

  /// Width of the automatic seal grid (ticks of stream time per sealed
  /// segment). Must be >= 1.
  int seal_interval_ticks = 64;

  /// Bounded arrival disorder (ticks); see above. Must be >= 0.
  int max_lateness_ticks = 0;

  /// Storage shards of every sealed segment (each segment owns its own
  /// topology — the devices of a sealed unit are never mutated again).
  int num_shards = 1;

  /// Page size of the sealed segments' devices.
  size_t page_size = BlockDevice::kDefaultPageSize;

  /// Buffer-pool pages each query session dedicates to each sealed
  /// segment it touches.
  size_t buffer_pool_pages = 256;

  /// Contacts per on-disk block (the sealed segments' placement unit:
  /// block k lands on shard k mod S, so a time-ordered scan round-robins
  /// the shards exactly like the batch families' temporal buckets).
  size_t block_contacts = 64;

  /// Write-side stack configuration of every seal: write queue depth,
  /// build workers, page codec — the same knobs a batch build takes.
  BuildOptions build;
};

/// Validates a `StreamingOptions`; every streaming entry point calls this
/// first.
inline Status ValidateStreamingOptions(const StreamingOptions& options) {
  if (options.num_objects == 0) {
    return Status::InvalidArgument("streaming: num_objects must be >= 1");
  }
  if (options.span.empty()) {
    return Status::InvalidArgument("streaming: span must be non-empty");
  }
  if (options.seal_interval_ticks < 1) {
    return Status::InvalidArgument(
        "streaming: seal_interval_ticks must be >= 1");
  }
  if (options.max_lateness_ticks < 0) {
    return Status::InvalidArgument(
        "streaming: max_lateness_ticks must be >= 0");
  }
  if (options.num_shards < 1) {
    return Status::InvalidArgument("streaming: num_shards must be >= 1");
  }
  if (options.page_size == 0) {
    return Status::InvalidArgument("streaming: page_size must be >= 1");
  }
  if (options.buffer_pool_pages == 0) {
    return Status::InvalidArgument(
        "streaming: buffer_pool_pages must be >= 1");
  }
  if (options.block_contacts == 0) {
    return Status::InvalidArgument("streaming: block_contacts must be >= 1");
  }
  return ValidateBuildOptions(options.build);
}

}  // namespace streach

#endif  // STREACH_STREAM_STREAMING_OPTIONS_H_
