#include "util/binio.h"

#include <cstring>

namespace pghive::util {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutF32(std::string* out, float v) {
  uint32_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(out, bits);
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutString(std::string* out, std::string_view s) {
  PutVarint(out, s.size());
  out->append(s);
}

void PutU32Vector(std::string* out, const std::vector<uint32_t>& v) {
  PutU64(out, v.size());
  for (uint32_t x : v) PutU32(out, x);
}

void PutVarintVector(std::string* out, const std::vector<uint64_t>& v) {
  PutVarint(out, v.size());
  for (uint64_t x : v) PutVarint(out, x);
}

void PutU64Set(std::string* out, const std::set<uint64_t>& v) {
  PutU64(out, v.size());
  for (uint64_t x : v) PutU64(out, x);
}

void PutF32Vector(std::string* out, const std::vector<float>& v) {
  PutU64(out, v.size());
  for (float x : v) PutF32(out, x);
}

namespace {

/// Slicing-by-8 tables: t[0] is the classic byte table, and t[k][i] advances
/// the register over byte i followed by k zero bytes, so eight input bytes
/// fold in with eight independent lookups instead of a chain of eight.
struct Crc32Tables {
  uint32_t t[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const Crc32Tables tables;
  const auto& t = tables.t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xffffffffu;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

uint32_t Crc32(std::string_view bytes, uint32_t seed) {
  return Crc32(bytes.data(), bytes.size(), seed);
}

uint8_t ByteReader::ReadU8() {
  if (!Has(1)) return 0;
  return static_cast<uint8_t>(bytes_[pos_++]);
}

uint32_t ByteReader::ReadU32() {
  if (!Has(4)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_++])) << (8 * i);
  }
  return v;
}

uint64_t ByteReader::ReadU64() {
  if (!Has(8)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_++])) << (8 * i);
  }
  return v;
}

float ByteReader::ReadF32() {
  uint32_t bits = ReadU32();
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return ok_ ? v : 0.0f;
}

double ByteReader::ReadF64() {
  uint64_t bits = ReadU64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return ok_ ? v : 0.0;
}

uint64_t ByteReader::ReadVarint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (!Has(1)) return 0;
    uint8_t byte = static_cast<uint8_t>(bytes_[pos_++]);
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // Reject non-canonical trailing bits past 64 (shift 63 holds one bit).
      if (shift == 63 && (byte & 0x7e) != 0) {
        ok_ = false;
        return 0;
      }
      return v;
    }
  }
  ok_ = false;  // More than 10 continuation bytes: not a 64-bit varint.
  return 0;
}

bool ByteReader::SaneCount(uint64_t n, uint64_t width) {
  if (n > bytes_.size() || !Has(n * width)) {
    ok_ = false;
    return false;
  }
  return true;
}

std::string_view ByteReader::ReadBytes(size_t n) {
  if (!Has(n)) return {};
  std::string_view view = bytes_.substr(pos_, n);
  pos_ += n;
  return view;
}

bool ByteReader::ReadString(std::string* out) {
  uint64_t n = ReadVarint();
  if (!SaneCount(n, 1)) return false;
  out->assign(ReadBytes(n));
  return ok_;
}

bool ByteReader::ReadU32Vector(std::vector<uint32_t>* v) {
  uint64_t n = ReadU64();
  if (!SaneCount(n, 4)) return false;
  v->reserve(n);
  for (uint64_t i = 0; i < n; ++i) v->push_back(ReadU32());
  return ok_;
}

bool ByteReader::ReadU64Vector(std::vector<uint64_t>* v) {
  uint64_t n = ReadU64();
  if (!SaneCount(n, 8)) return false;
  v->reserve(n);
  for (uint64_t i = 0; i < n; ++i) v->push_back(ReadU64());
  return ok_;
}

bool ByteReader::ReadVarintVector(std::vector<uint64_t>* v) {
  uint64_t n = ReadVarint();
  if (!SaneCount(n, 1)) return false;  // Every varint takes at least a byte.
  v->reserve(n);
  for (uint64_t i = 0; i < n && ok_; ++i) v->push_back(ReadVarint());
  return ok_;
}

bool ByteReader::ReadU64Set(std::set<uint64_t>* v) {
  uint64_t n = ReadU64();
  if (!SaneCount(n, 8)) return false;
  for (uint64_t i = 0; i < n; ++i) v->insert(ReadU64());
  return ok_;
}

bool ByteReader::ReadF32Vector(std::vector<float>* v) {
  uint64_t n = ReadU64();
  if (!SaneCount(n, 4)) return false;
  v->reserve(n);
  for (uint64_t i = 0; i < n; ++i) v->push_back(ReadF32());
  return ok_;
}

void AppendSection(std::string* out, uint32_t id, std::string_view payload) {
  PutU32(out, id);
  PutU64(out, payload.size());
  out->append(payload);
  PutU32(out, Crc32(payload));
}

bool ReadSection(ByteReader* in, uint32_t* id, std::string_view* payload) {
  *id = in->ReadU32();
  uint64_t length = in->ReadU64();
  if (!in->SaneCount(length, 1)) return false;
  *payload = in->ReadBytes(length);
  uint32_t crc = in->ReadU32();
  if (!in->ok()) return false;
  if (crc != Crc32(*payload)) {
    in->Fail();
    return false;
  }
  return true;
}

}  // namespace pghive::util
