#ifndef STREACH_STORAGE_CHECKSUM_H_
#define STREACH_STORAGE_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace streach {

/// \name Storage integrity checksums
///
/// The storage tier guards its bytes at two granularities, both with the
/// same CRC-32C (Castagnoli):
///
///  * every blob an `ExtentWriter` places carries a 4-byte footer over its
///    stored bytes (codec-independent — the raw codec finally detects
///    torn or bit-flipped records, which previously only `kDeltaVarint`
///    caught as a decode side effect), verified and stripped when the
///    extent is reassembled;
///  * every `BlockDevice` page has an out-of-band checksum sidecar entry,
///    refreshed on each write and verified on each read, so even byte
///    probes that bypass extent assembly (e.g. ReachGrid's raw locator
///    peeks) never see silently corrupted media.
///
/// The contact WAL checksums each record with it too. CRC-32C is not
/// cryptographic — it detects accidental corruption (the threat model of
/// a simulated disk): every single-bit and every burst error up to 32
/// bits. It runs a word at a time: on x86-64 hosts with SSE4.2 one
/// `crc32` instruction per 8 bytes, elsewhere a slice-by-8 table walk.
/// @{

inline constexpr size_t kBlobChecksumBytes = 4;

/// CRC-32C of `bytes` (initial value and final XOR 0xFFFFFFFF, so
/// `Crc32c("123456789") == 0xE3069283`). Picks the hardware path once,
/// at first use, when the CPU has it.
uint32_t Crc32c(std::string_view bytes);

/// The portable slice-by-8 CRC-32C, the reference the hardware path must
/// match bit for bit (and the path every host without SSE4.2 runs).
uint32_t Crc32cPortable(std::string_view bytes);

/// Little-endian footer encode/decode (fixed width, codec-independent).
inline void AppendChecksumFooter(uint32_t sum, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((sum >> (8 * i)) & 0xFF));
  }
}

inline uint32_t DecodeChecksumFooter(std::string_view footer) {
  uint32_t sum = 0;
  for (int i = 0; i < 4; ++i) {
    sum |= static_cast<uint32_t>(static_cast<uint8_t>(footer[i])) << (8 * i);
  }
  return sum;
}
/// @}

}  // namespace streach

#endif  // STREACH_STORAGE_CHECKSUM_H_
