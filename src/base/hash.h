// Shared non-cryptographic hash primitives.
//
// One definition for the FNV-1a and SplitMix64 streaming hashers used
// by the engine's request fingerprints (src/engine/fingerprint.cc), the
// Σ version (src/engine/snapshot.cc) and the byte checksum that seals
// snapshot files and wire frames. Every output is a persisted contract —
// the cover-cache format and the wire store them — so there must be
// exactly one implementation to diverge from.

#ifndef CFDPROP_BASE_HASH_H_
#define CFDPROP_BASE_HASH_H_

#include <cstdint>
#include <string_view>

namespace cfdprop {

/// Field encoding shared by the byte hashers below: integers as 8
/// little-endian bytes, strings length-prefixed so concatenated fields
/// cannot alias ("ab","c" hashes differently from "a","bc").
template <typename Self>
class FieldHasher {
 public:
  void Mix(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      self().MixByte(static_cast<uint8_t>(x >> (8 * i)));
    }
  }
  void Mix(std::string_view s) {
    Mix(static_cast<uint64_t>(s.size()));
    for (char c : s) self().MixByte(static_cast<uint8_t>(c));
  }

 private:
  Self& self() { return static_cast<Self&>(*this); }
};

/// FNV-1a, 64 bit.
class Fnv1aHasher : public FieldHasher<Fnv1aHasher> {
 public:
  void MixByte(uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  uint64_t digest() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

/// FNV-1a over raw bytes: the checksum trailer of snapshot files and
/// wire frames. Not cryptographic: it catches truncation and bit rot,
/// not an adversary.
inline uint64_t Fnv1aChecksum(std::string_view bytes) {
  Fnv1aHasher h;
  for (char c : bytes) h.MixByte(static_cast<uint8_t>(c));
  return h.digest();
}

inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// SplitMix64 absorption, finalized with the byte count: structurally
/// different from FNV-1a, so the two together make a 128-bit identity
/// (request check hashes, Σ versions).
class SplitMixHasher : public FieldHasher<SplitMixHasher> {
 public:
  void MixByte(uint8_t b) {
    h_ = SplitMix64(h_ ^ b);
    ++len_;
  }
  uint64_t digest() const { return SplitMix64(h_ ^ len_); }

 private:
  uint64_t h_ = 0x2545f4914f6cdd1dull;
  uint64_t len_ = 0;
};

}  // namespace cfdprop

#endif  // CFDPROP_BASE_HASH_H_
