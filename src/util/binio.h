#ifndef PGHIVE_UTIL_BINIO_H_
#define PGHIVE_UTIL_BINIO_H_

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace pghive::util {

/// Little-endian binary framing shared by every binary format in the repo —
/// the schema snapshot (core/serialize), the full-state snapshot
/// (core::PgHive::SaveState), schema-diff changefeed records
/// (core/schema_diff), and the pghived session state files. One reader/writer
/// pair keeps the bounds-checking discipline identical everywhere: a length
/// prefix is never trusted until it has been clamped against the remaining
/// payload, and framed sections carry a CRC-32 so a flipped bit anywhere in a
/// payload is caught before any structure is built from it.

// --- Fixed-width little-endian writers ---------------------------------------

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
/// IEEE-754 bit pattern, little-endian: round trips are bit-exact, which the
/// checkpoint/resume byte-identity guarantee depends on.
void PutF32(std::string* out, float v);
void PutF64(std::string* out, double v);
/// Unsigned LEB128.
void PutVarint(std::string* out, uint64_t v);
/// Varint length prefix + raw bytes.
void PutString(std::string* out, std::string_view s);

void PutU32Vector(std::string* out, const std::vector<uint32_t>& v);
/// Varint count + one varint per element: small values take one byte.
void PutVarintVector(std::string* out, const std::vector<uint64_t>& v);
void PutU64Set(std::string* out, const std::set<uint64_t>& v);
void PutF32Vector(std::string* out, const std::vector<float>& v);

// --- CRC-32 (IEEE reflected polynomial, the zlib/ethernet one) ---------------

uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);
uint32_t Crc32(std::string_view bytes, uint32_t seed = 0);

// --- Reader ------------------------------------------------------------------

/// Sequential little-endian reader. Every Read* checks remaining bytes; the
/// first failure latches into ok() so callers can string reads together and
/// test once at the end. Reads after a failure return zero values and never
/// advance, so a truncated or hostile payload can't walk out of bounds or
/// trigger a huge allocation.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return ok_ ? bytes_.size() - pos_ : 0; }
  bool AtEnd() const { return pos_ == bytes_.size(); }
  void Fail() { ok_ = false; }

  /// True iff at least `n` bytes remain; latches failure otherwise.
  bool Has(size_t n) {
    if (!ok_ || bytes_.size() - pos_ < n) ok_ = false;
    return ok_;
  }

  uint8_t ReadU8();
  uint32_t ReadU32();
  uint64_t ReadU64();
  float ReadF32();
  double ReadF64();
  uint64_t ReadVarint();

  /// Clamps an untrusted element count before any reserve()/resize(): a
  /// valid count can never exceed the remaining payload, so this also blocks
  /// n*width overflow. Latches failure when the count is insane.
  bool SaneCount(uint64_t n, uint64_t width);

  /// A view of the next `n` bytes (valid while the source outlives it).
  std::string_view ReadBytes(size_t n);

  /// Varint length prefix (SaneCount-clamped) + raw bytes.
  bool ReadString(std::string* out);

  bool ReadU32Vector(std::vector<uint32_t>* v);
  /// The u64 count + fixed-width u64 layout that older writers used.
  bool ReadU64Vector(std::vector<uint64_t>* v);
  bool ReadVarintVector(std::vector<uint64_t>* v);
  bool ReadU64Set(std::set<uint64_t>* v);
  bool ReadF32Vector(std::vector<float>* v);

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- CRC-framed sections -----------------------------------------------------

/// One section: u32 id, u64 payload length, payload bytes, u32 CRC-32 of the
/// payload. The snapshot formats are a flat sequence of these; unknown ids
/// can be skipped without understanding their contents, which is how the
/// formats stay extensible under the version/compat policy.
void AppendSection(std::string* out, uint32_t id, std::string_view payload);

/// Reads the next section header + payload and verifies the CRC. On
/// truncation, an insane length, or a CRC mismatch the reader latches
/// failure and false is returned.
bool ReadSection(ByteReader* in, uint32_t* id, std::string_view* payload);

}  // namespace pghive::util

#endif  // PGHIVE_UTIL_BINIO_H_
