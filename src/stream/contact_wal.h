#ifndef STREACH_STREAM_CONTACT_WAL_H_
#define STREACH_STREAM_CONTACT_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "join/contact.h"

namespace streach {

/// \brief Append-only write-ahead log of the streaming ingestor's inputs.
///
/// The ingestor's durable state is entirely derivable from the sequence
/// of accepted appends plus the explicit seal calls: sealed-segment
/// images are a pure function of the contact set and the build options,
/// and the automatic seal grid replays identically from the same
/// appends. So the WAL records exactly that sequence — one record per
/// *accepted* contact (rejected appends are never logged, so replay
/// never re-fails validation) and one control record per explicit
/// `Seal`/`SealRemaining` (automatic boundary seals are derived, not
/// logged). Replaying the log through the normal `Append`/`Seal` paths
/// reconstructs a byte-identical ingestor from any prefix.
///
/// Record format (fixed 21 bytes, little-endian):
///
///     kind  u8   1 = contact, 2 = seal, 3 = seal-remaining
///     a     u32  contact fields; zero for control records
///     b     u32
///     start u32
///     end   u32
///     sum   u32  CRC-32C over the preceding 17 bytes
///
/// The per-record checksum makes a torn tail (a crash mid-write) or a
/// bit-flipped record detectable: `Replay` returns the longest valid
/// prefix and stops at the first record that is truncated or fails its
/// checksum — everything before it is intact by construction.
class ContactWal {
 public:
  /// One decoded log record.
  struct Record {
    enum Kind : uint8_t { kContact = 1, kSeal = 2, kSealRemaining = 3 };
    Kind kind = kContact;
    Contact contact;  // Meaningful only for kContact.
  };

  /// Serialized size of every record.
  static constexpr size_t kRecordBytes = 21;

  /// \name Logging (append one record to the in-memory log image)
  /// @{
  void LogContact(const Contact& contact);
  void LogSeal();
  void LogSealRemaining();
  /// @}

  /// The log image so far — what would be on disk after an fsync.
  const std::string& bytes() const { return bytes_; }

  size_t size_bytes() const { return bytes_.size(); }

  /// Truncates the log image to its first `bytes` bytes, simulating a
  /// crash that persisted only a prefix (possibly mid-record).
  void TruncateForTesting(size_t bytes);

  /// Decodes the longest valid prefix of `log` into records, stopping
  /// at the first torn (truncated) or checksum-corrupt record. Never
  /// fails: a damaged tail simply yields fewer records.
  static std::vector<Record> Replay(std::string_view log);

 private:
  void LogControl(Record::Kind kind);

  std::string bytes_;
};

}  // namespace streach

#endif  // STREACH_STREAM_CONTACT_WAL_H_
