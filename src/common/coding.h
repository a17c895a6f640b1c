// Binary encoding helpers (varint / fixed / length-prefixed), used by the
// write-ahead-log codec and message serialization. Follows the RocksDB
// coding.h style: Put* appends to a std::string, Get* consumes from a
// string_view and returns false on underflow or malformed input.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace paxoscp {

void PutFixed64(std::string* dst, uint64_t value);
void PutVarint64(std::string* dst, uint64_t value);
/// Appends a varint length followed by the raw bytes.
void PutLengthPrefixed(std::string* dst, std::string_view value);

bool GetFixed64(std::string_view* input, uint64_t* value);
bool GetVarint64(std::string_view* input, uint64_t* value);
bool GetLengthPrefixed(std::string_view* input, std::string_view* value);

/// ZigZag transform so small negative numbers encode compactly as varints.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void PutVarsint64(std::string* dst, int64_t value);
bool GetVarsint64(std::string_view* input, int64_t* value);

/// Upper bound on the encoded size of one varint64.
inline constexpr int kMaxVarint64Bytes = 10;

/// Writes `value` as a varint into `dst` (which must have at least
/// kMaxVarint64Bytes available) and returns one past the last byte written.
/// The raw-buffer form lets hot encoders (Ballot::Encode) build fixed-size
/// encodings entirely on the stack.
inline char* EncodeVarint64To(char* dst, uint64_t value) {
  unsigned char* p = reinterpret_cast<unsigned char*>(dst);
  while (value >= 0x80) {
    *p++ = static_cast<unsigned char>(value) | 0x80;
    value >>= 7;
  }
  *p++ = static_cast<unsigned char>(value);
  return reinterpret_cast<char*>(p);
}

/// Streaming 64-bit content fingerprint. Produces the same digest for the
/// same byte stream no matter how the stream is chunked across Add* calls,
/// so codecs can fingerprint their encoded form field by field without
/// materializing it (LogEntry::Fingerprint). Internally hashes 8-byte words
/// (an xxHash64-style round) instead of single bytes, which is ~4x faster
/// than byte-at-a-time FNV on typical log entries. The digest is stable only
/// within one process lifetime — it is never persisted.
class Fingerprinter {
 public:
  /// Mixes raw bytes into the digest.
  void Add(std::string_view data);
  /// Mixes the varint encoding of `v` (same bytes PutVarint64 would append).
  /// Single-byte varints — the overwhelming majority in a log entry — skip
  /// the encode-buffer round trip.
  void AddVarint64(uint64_t v) {
    if (v < 0x80) {
      AddByte(static_cast<unsigned char>(v));
      return;
    }
    char buf[kMaxVarint64Bytes];
    Add(std::string_view(buf, static_cast<size_t>(EncodeVarint64To(buf, v) -
                                                  buf)));
  }
  /// Mixes the zigzag varint encoding of `v` (as PutVarsint64).
  void AddVarsint64(int64_t v) { AddVarint64(ZigZagEncode(v)); }
  /// Mixes the little-endian fixed encoding of `v` (as PutFixed64).
  void AddFixed64(uint64_t v);
  /// Mixes a varint length followed by the bytes (as PutLengthPrefixed).
  void AddLengthPrefixed(std::string_view v) {
    AddVarint64(v.size());
    Add(v);
  }
  /// Final digest; the Fingerprinter may keep accumulating afterwards.
  uint64_t Finish() const;

 private:
  void Mix(uint64_t word);

  void AddByte(unsigned char b) {
    ++total_len_;
    pending_ |= static_cast<uint64_t>(b) << (8 * pending_len_);
    if (++pending_len_ == 8) {
      Mix(pending_);
      pending_ = 0;
      pending_len_ = 0;
    }
  }

  uint64_t state_ = 0x9e3779b97f4a7c15ULL;
  uint64_t pending_ = 0;  // partial little-endian word, low bytes first
  uint32_t pending_len_ = 0;
  uint64_t total_len_ = 0;
};

/// 64-bit fingerprint of a byte string; used for log-entry fingerprints.
/// Equals Fingerprinter{Add(data)}.Finish(), so streamed field-by-field
/// fingerprints match fingerprints of the materialized encoding.
uint64_t Fingerprint64(std::string_view data);

}  // namespace paxoscp
