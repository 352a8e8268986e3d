#include "stream/contact_wal.h"

#include <cstring>

#include "common/encoding.h"
#include "storage/checksum.h"

namespace streach {
namespace {

/// Serializes one record body (kind + four u32 fields) and appends it,
/// followed by the CRC-32C of those 17 bytes, to `out`.
void AppendRecord(uint8_t kind, uint32_t a, uint32_t b, uint32_t start,
                  uint32_t end, std::string* out) {
  Encoder enc;
  enc.PutU8(kind);
  enc.PutU32(a);
  enc.PutU32(b);
  enc.PutU32(start);
  enc.PutU32(end);
  enc.PutU32(Crc32c(enc.buffer()));
  out->append(enc.buffer());
}

}  // namespace

void ContactWal::LogContact(const Contact& contact) {
  AppendRecord(Record::kContact, contact.a, contact.b,
               static_cast<uint32_t>(contact.validity.start),
               static_cast<uint32_t>(contact.validity.end), &bytes_);
}

void ContactWal::LogSeal() { LogControl(Record::kSeal); }

void ContactWal::LogSealRemaining() { LogControl(Record::kSealRemaining); }

void ContactWal::LogControl(Record::Kind kind) {
  AppendRecord(kind, 0, 0, 0, 0, &bytes_);
}

void ContactWal::TruncateForTesting(size_t bytes) {
  if (bytes < bytes_.size()) bytes_.resize(bytes);
}

std::vector<ContactWal::Record> ContactWal::Replay(std::string_view log) {
  std::vector<Record> records;
  records.reserve(log.size() / kRecordBytes);
  for (size_t off = 0; off + kRecordBytes <= log.size();
       off += kRecordBytes) {
    const std::string_view body = log.substr(off, kRecordBytes - 4);
    Decoder dec(log.substr(off, kRecordBytes));
    const uint8_t kind = *dec.GetU8();
    const uint32_t a = *dec.GetU32();
    const uint32_t b = *dec.GetU32();
    const uint32_t start = *dec.GetU32();
    const uint32_t end = *dec.GetU32();
    const uint32_t sum = *dec.GetU32();
    if (sum != Crc32c(body)) break;  // Corrupt record: stop here.
    if (kind != Record::kContact && kind != Record::kSeal &&
        kind != Record::kSealRemaining) {
      break;  // Unknown kind that happened to checksum: treat as damage.
    }
    Record record;
    record.kind = static_cast<Record::Kind>(kind);
    if (record.kind == Record::kContact) {
      record.contact.a = a;
      record.contact.b = b;
      record.contact.validity.start = static_cast<Timestamp>(start);
      record.contact.validity.end = static_cast<Timestamp>(end);
    }
    records.push_back(record);
  }
  return records;
}

}  // namespace streach
