// certkit support: FNV-1a/64 streaming digest helpers.
//
// The one FNV-1a/64 implementation in the tree: it keys the driver's
// artifact cache, the lexer's compile-time keyword sets, the corpus-store
// and checkpoint digests and the detector-batch bench. Typed append
// helpers build digest streams (replay tick signatures, analysis digests)
// by chaining the seed. Doubles are hashed by bit pattern — the digests
// gate *bit* identity, not approximate equality — with -0.0 and every NaN
// payload hashing as distinct values on purpose.
#ifndef CERTKIT_SUPPORT_FNV_H_
#define CERTKIT_SUPPORT_FNV_H_

#include <cstdint>
#include <cstring>
#include <numeric>
#include <string_view>

namespace certkit::support {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t FnvBytes(const void* data, std::size_t size,
                              std::uint64_t seed = kFnvOffsetBasis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    seed ^= bytes[i];
    seed *= kFnvPrime;
  }
  return seed;
}

// constexpr, so compile-time tables (the lexer's keyword sets) hash with
// the same function as runtime digests; equal to FnvBytes over s's bytes.
constexpr std::uint64_t FnvStr(std::string_view s,
                               std::uint64_t seed = kFnvOffsetBasis) {
  return std::accumulate(s.begin(), s.end(), seed,
                         [](std::uint64_t h, char c) {
                           return (h ^ static_cast<unsigned char>(c)) *
                                  kFnvPrime;
                         });
}

inline std::uint64_t FnvU64(std::uint64_t v,
                            std::uint64_t seed = kFnvOffsetBasis) {
  return FnvBytes(&v, sizeof(v), seed);
}

inline std::uint64_t FnvI64(std::int64_t v,
                            std::uint64_t seed = kFnvOffsetBasis) {
  return FnvBytes(&v, sizeof(v), seed);
}

inline std::uint64_t FnvDouble(double v,
                               std::uint64_t seed = kFnvOffsetBasis) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return FnvU64(bits, seed);
}

}  // namespace certkit::support

#endif  // CERTKIT_SUPPORT_FNV_H_
