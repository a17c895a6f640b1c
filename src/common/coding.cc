#include "common/coding.h"

#include <cstring>

namespace paxoscp {

void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(value >> (8 * i));
  dst->append(buf, 8);
}

void PutVarint64(std::string* dst, uint64_t value) {
  unsigned char buf[10];
  int n = 0;
  while (value >= 0x80) {
    buf[n++] = static_cast<unsigned char>(value) | 0x80;
    value >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(value);
  dst->append(reinterpret_cast<char*>(buf), n);
}

void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

bool GetFixed64(std::string_view* input, uint64_t* value) {
  if (input->size() < 8) return false;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>((*input)[i]))
         << (8 * i);
  }
  *value = v;
  input->remove_prefix(8);
  return true;
}

bool GetVarint64(std::string_view* input, uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && !input->empty(); shift += 7) {
    const uint64_t byte = static_cast<unsigned char>(input->front());
    input->remove_prefix(1);
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      result |= byte << shift;
      *value = result;
      return true;
    }
  }
  return false;  // ran out of input or > 10 bytes
}

bool GetLengthPrefixed(std::string_view* input, std::string_view* value) {
  uint64_t len = 0;
  if (!GetVarint64(input, &len)) return false;
  if (input->size() < len) return false;
  *value = input->substr(0, len);
  input->remove_prefix(len);
  return true;
}

void PutVarsint64(std::string* dst, int64_t value) {
  PutVarint64(dst, ZigZagEncode(value));
}

bool GetVarsint64(std::string_view* input, int64_t* value) {
  uint64_t v = 0;
  if (!GetVarint64(input, &v)) return false;
  *value = ZigZagDecode(v);
  return true;
}

namespace {

constexpr uint64_t kMul1 = 0x9e3779b185ebca87ULL;  // xxHash64 primes
constexpr uint64_t kMul2 = 0xc2b2ae3d27d4eb4fULL;

inline uint64_t Rotl(uint64_t v, int s) { return (v << s) | (v >> (64 - s)); }

inline uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= kMul1;
  h ^= h >> 29;
  h *= kMul2;
  h ^= h >> 32;
  return h;
}

}  // namespace

void Fingerprinter::Mix(uint64_t word) {
  state_ = Rotl(state_ ^ (word * kMul1), 31) * kMul2;
}

namespace {

inline uint64_t LoadWordLE(const char* p) {
  uint64_t word;
  std::memcpy(&word, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  word = __builtin_bswap64(word);  // match the little-endian byte packing
#endif
  return word;
}

}  // namespace

void Fingerprinter::Add(std::string_view data) {
  const char* p = data.data();
  size_t n = data.size();
  total_len_ += n;
  if (pending_len_ > 0 && n >= 8) {
    // Unaligned bulk path: merge each input word into the partial word by
    // shifting, instead of re-packing byte by byte. pending_len_ is
    // invariant through the loop.
    const uint32_t shift = 8 * pending_len_;
    const uint32_t inv = 64 - shift;  // both in [8, 56]: shifts well-defined
    do {
      const uint64_t word = LoadWordLE(p);
      Mix(pending_ | (word << shift));
      pending_ = word >> inv;
      p += 8;
      n -= 8;
    } while (n >= 8);
  } else {
    while (n >= 8) {
      Mix(LoadWordLE(p));
      p += 8;
      n -= 8;
    }
  }
  while (n > 0) {
    pending_ |= static_cast<uint64_t>(static_cast<unsigned char>(*p))
                << (8 * pending_len_);
    if (++pending_len_ == 8) {
      Mix(pending_);
      pending_ = 0;
      pending_len_ = 0;
    }
    ++p;
    --n;
  }
}

void Fingerprinter::AddFixed64(uint64_t v) {
  total_len_ += 8;
  if (pending_len_ == 0) {
    // Aligned: a fixed64's little-endian bytes are exactly one word.
    Mix(v);
    return;
  }
  // Unaligned: low bytes of v complete the partial word; the rest carries.
  const uint32_t shift = 8 * pending_len_;
  Mix(pending_ | (v << shift));
  pending_ = v >> (64 - shift);
}

uint64_t Fingerprinter::Finish() const {
  uint64_t h = state_;
  if (pending_len_ > 0) {
    // total_len_ below disambiguates a padded tail from literal zero bytes.
    h = Rotl(h ^ (pending_ * kMul1), 31) * kMul2;
  }
  return Avalanche(h ^ total_len_);
}

uint64_t Fingerprint64(std::string_view data) {
  Fingerprinter fp;
  fp.Add(data);
  return fp.Finish();
}

}  // namespace paxoscp
