#pragma once
// Seed mixing owned by the benchmark, so the inputs it derives from
// --seed stay fixed however the program's own generators change.

#include <cstdint>

namespace perfbench {

/// splitmix64 step.
inline std::uint64_t next_u64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b * 0xd1b54a32d192ed03ull);
  return next_u64(s);
}

/// Uniform in [0, 1) from the top 53 bits.
inline double unit_double(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace perfbench
