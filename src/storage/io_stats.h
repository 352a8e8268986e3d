#ifndef STREACH_STORAGE_IO_STATS_H_
#define STREACH_STORAGE_IO_STATS_H_

#include <cstdint>
#include <string>

namespace streach {

/// \brief Disk-access counters in the paper's measurement model (§6).
///
/// The paper reports "number of random IOs", where "the sequential IOs are
/// normalized to random accesses by assuming that each random access costs
/// as much as 20 sequential accesses" (following Corral et al. [6]). A page
/// read whose page id immediately follows the previously accessed page is
/// sequential; every other access is random.
struct IoStats {
  uint64_t random_reads = 0;
  uint64_t sequential_reads = 0;
  uint64_t random_writes = 0;
  uint64_t sequential_writes = 0;

  /// \name Async-queue counters
  ///
  /// Reads serviced through the batched `SubmitBatch` path also record the
  /// submission-queue occupancy at the moment they were serviced, so the
  /// overlap a traversal actually achieved is measurable:
  /// `mean_inflight()` is 1.0 when every batched read went out alone
  /// (queue depth 1) and approaches the queue depth when batches keep the
  /// per-shard queues full. Every buffer-pool read goes through
  /// `SubmitBatch`, so a pool's `batched_reads` equals its
  /// `total_reads()` at every depth. Only the device-level `ReadPage`
  /// calls leave these untouched.
  /// @{
  uint64_t batched_reads = 0;   ///< Reads serviced via SubmitBatch.
  uint64_t inflight_accum = 0;  ///< Sum of queue occupancy at each service.
  /// @}

  /// \name Async write-queue counters
  ///
  /// The write-side mirror: pages written through `SubmitWriteBatch` (the
  /// batched build path) record the write queue's occupancy at the moment
  /// they were serviced. `mean_write_inflight()` is 1.0 when every
  /// batched write went out alone and approaches the write queue depth
  /// when an extent writer's flushes keep the queue full. Writes through
  /// the synchronous `WritePage` path leave these untouched, so a
  /// `write_queue_depth == 1` build reports zero batched writes — the
  /// historical profile.
  /// @{
  uint64_t batched_writes = 0;        ///< Writes serviced via SubmitWriteBatch.
  uint64_t write_inflight_accum = 0;  ///< Sum of occupancy at each service.
  /// @}

  /// \name Fault & retry counters
  ///
  /// A read that fails with a transient `Unavailable` (an injected fault,
  /// or on real hardware a flaky bus) counts one `transient_faults` per
  /// failed attempt; every reissued attempt the buffer pool's bounded
  /// retry loop pays counts one `read_retries`. Fault-free runs leave
  /// both at zero — the historical profile — and a workload whose faults
  /// were fully masked shows `transient_faults == read_retries` with no
  /// surfaced errors.
  /// @{
  uint64_t read_retries = 0;     ///< Read attempts reissued after Unavailable.
  uint64_t transient_faults = 0; ///< Unavailable results observed.
  /// @}

  /// \name Page-codec byte counters
  ///
  /// Records transcoded through a `PageCodec` account the stored
  /// (`encoded_bytes`) and reconstructed raw (`decoded_bytes`) sizes of
  /// each transcode: extent writers count every appended blob against the
  /// device-global stats at build time, buffer pools count every extent
  /// decode against the owning shard's cursor at query time. Under the
  /// `kRaw` codec both sides count equal byte totals on the write path
  /// and nothing on the read path (there is no decode), so
  /// `compression_ratio()` reports 1.0 — the historical profile.
  /// @{
  uint64_t encoded_bytes = 0;  ///< Stored bytes after codec encode.
  uint64_t decoded_bytes = 0;  ///< Raw record bytes before encode.
  /// @}

  /// Random:sequential cost ratio used for normalization.
  static constexpr double kSequentialPerRandom = 20.0;

  uint64_t total_reads() const { return random_reads + sequential_reads; }
  uint64_t total_writes() const { return random_writes + sequential_writes; }

  /// Mean number of in-flight requests over the batched reads (0 when no
  /// read went through the batch path).
  double mean_inflight() const {
    return batched_reads == 0 ? 0.0
                              : static_cast<double>(inflight_accum) /
                                    static_cast<double>(batched_reads);
  }

  /// Mean number of in-flight requests over the batched writes (0 when no
  /// write went through the batch path).
  double mean_write_inflight() const {
    return batched_writes == 0 ? 0.0
                               : static_cast<double>(write_inflight_accum) /
                                     static_cast<double>(batched_writes);
  }

  /// Raw-bytes : stored-bytes ratio of the records transcoded so far
  /// (1.0 when nothing was transcoded — the raw-codec profile). Above 1
  /// means the codec shrank the on-disk image by that factor.
  double compression_ratio() const {
    return encoded_bytes == 0 ? 1.0
                              : static_cast<double>(decoded_bytes) /
                                    static_cast<double>(encoded_bytes);
  }

  /// Normalized read cost in units of random accesses.
  double NormalizedReadCost() const {
    return static_cast<double>(random_reads) +
           static_cast<double>(sequential_reads) / kSequentialPerRandom;
  }

  /// Normalized total (read + write) cost in units of random accesses.
  double NormalizedCost() const {
    return NormalizedReadCost() + static_cast<double>(random_writes) +
           static_cast<double>(sequential_writes) / kSequentialPerRandom;
  }

  IoStats operator-(const IoStats& o) const {
    IoStats d;
    d.random_reads = random_reads - o.random_reads;
    d.sequential_reads = sequential_reads - o.sequential_reads;
    d.random_writes = random_writes - o.random_writes;
    d.sequential_writes = sequential_writes - o.sequential_writes;
    d.batched_reads = batched_reads - o.batched_reads;
    d.inflight_accum = inflight_accum - o.inflight_accum;
    d.batched_writes = batched_writes - o.batched_writes;
    d.write_inflight_accum = write_inflight_accum - o.write_inflight_accum;
    d.read_retries = read_retries - o.read_retries;
    d.transient_faults = transient_faults - o.transient_faults;
    d.encoded_bytes = encoded_bytes - o.encoded_bytes;
    d.decoded_bytes = decoded_bytes - o.decoded_bytes;
    return d;
  }

  IoStats& operator+=(const IoStats& o) {
    random_reads += o.random_reads;
    sequential_reads += o.sequential_reads;
    random_writes += o.random_writes;
    sequential_writes += o.sequential_writes;
    batched_reads += o.batched_reads;
    inflight_accum += o.inflight_accum;
    batched_writes += o.batched_writes;
    write_inflight_accum += o.write_inflight_accum;
    read_retries += o.read_retries;
    transient_faults += o.transient_faults;
    encoded_bytes += o.encoded_bytes;
    decoded_bytes += o.decoded_bytes;
    return *this;
  }

  void Reset() { *this = IoStats(); }

  std::string ToString() const {
    return "reads{rand=" + std::to_string(random_reads) +
           ", seq=" + std::to_string(sequential_reads) +
           "} writes{rand=" + std::to_string(random_writes) +
           ", seq=" + std::to_string(sequential_writes) +
           "} normalized=" + std::to_string(NormalizedCost());
  }
};

}  // namespace streach

#endif  // STREACH_STORAGE_IO_STATS_H_
