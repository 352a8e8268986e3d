#include "storage/checksum.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define STREACH_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace streach {
namespace {

/// CRC-32C's polynomial 0x1EDC6F41, bit-reflected.
constexpr uint32_t kCrc32cPoly = 0x82F63B78u;

/// Slice-by-8 tables: `t[0]` is the byte-at-a-time table, and `t[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, so eight lookups
/// advance the CRC by one 8-byte word.
struct Crc32cTables {
  uint32_t t[8][256];

  constexpr Crc32cTables() : t{} {
    for (uint32_t b = 0; b < 256; ++b) {
      uint32_t crc = b;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kCrc32cPoly : 0u);
      }
      t[0][b] = crc;
    }
    for (uint32_t b = 0; b < 256; ++b) {
      for (int k = 1; k < 8; ++k) {
        t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
      }
    }
  }
};

constexpr Crc32cTables kTables;

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

#ifdef STREACH_CRC32C_SSE42
/// One `crc32` instruction per 8-byte word, then per byte for the tail.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(
    std::string_view bytes) {
  const char* p = bytes.data();
  size_t n = bytes.size();
  uint64_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(*p));
  return ~crc32;
}
#endif

using Crc32cFn = uint32_t (*)(std::string_view);

Crc32cFn SelectCrc32c() {
#ifdef STREACH_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &Crc32cSse42;
#endif
  return &Crc32cPortable;
}

}  // namespace

uint32_t Crc32cPortable(std::string_view bytes) {
  const auto& t = kTables.t;
  const auto* p = reinterpret_cast<const uint8_t*>(bytes.data());
  size_t n = bytes.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  return ~crc;
}

uint32_t Crc32c(std::string_view bytes) {
  static const Crc32cFn crc32c = SelectCrc32c();
  return crc32c(bytes);
}

}  // namespace streach
