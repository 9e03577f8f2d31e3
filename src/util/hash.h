#ifndef T2M_UTIL_HASH_H
#define T2M_UTIL_HASH_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace t2m {

/// splitmix64 finaliser: cheap, well-mixed 64-bit hash step.
inline std::uint64_t hash_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t v) {
  return hash_mix(seed ^ (v + (seed << 6) + (seed >> 2)));
}

/// Odd multiplier of the window hash (mod 2^64): a window a_0..a_{k-1}
/// hashes to hash_mix(sum a_i * base^(k-1-i)). StreamingWindowDedup rolls it
/// in O(1) per step, window_hash() folds it over a stored window, and the
/// compliance DFS extends it one edge at a time, so every window set of a
/// learn (segments, P_l, the sharded merge, the model words) is keyed by the
/// one hash. Collisions are resolved by full element comparison, so the
/// constant only affects bucket spread, not correctness.
inline constexpr std::uint64_t kPolyHashBase = 0x100000001b3ULL;

/// The window hash of [first, last): the polynomial fold, then hash_mix.
template <typename It>
std::uint64_t window_hash(It first, It last) {
  std::uint64_t h = 0;
  for (; first != last; ++first) h = h * kPolyHashBase + static_cast<std::uint64_t>(*first);
  return hash_mix(h);
}

/// Hash functor for vectors of integral ids, for unordered containers keyed
/// by a word (the forbidden-chain cache). The window sets use window_hash.
struct VectorHash {
  template <typename T>
  std::size_t operator()(const std::vector<T>& v) const {
    std::uint64_t h = 0x2545f4914f6cdd1dULL ^ v.size();
    for (const T& x : v) h = hash_combine(h, static_cast<std::uint64_t>(x));
    return static_cast<std::size_t>(h);
  }
};

}  // namespace t2m

#endif  // T2M_UTIL_HASH_H
