#ifndef CKNN_TESTS_FUZZ_UTIL_H_
#define CKNN_TESTS_FUZZ_UTIL_H_

// Runtime bounds for the randomized suites (the `fuzz`-labelled
// differential tests and torture_test). Defaults are fixed so tier-1 is
// deterministic and finishes in seconds; two environment variables widen
// the exploration locally without editing the tests:
//
//   CKNN_FUZZ_SEED=<n>    mixes n into every per-case seed (default: 0,
//                         meaning the per-case seed is used verbatim, which
//                         reproduces the historical tapes)
//   CKNN_FUZZ_SCALE=<x>   multiplies every iteration budget by x (a double;
//                         default 1.0). The result is clamped to a per-call
//                         hard cap so a stray value cannot hang CI.
//
// See tests/README.md for recipes.

#include <cstdint>
#include <cstdlib>

namespace cknn::testing {

/// Base seed mixed into every randomized case; 0 = identity (default tapes).
inline std::uint64_t FuzzBaseSeed() {
  static const std::uint64_t base = [] {
    const char* env = std::getenv("CKNN_FUZZ_SEED");
    return env != nullptr ? std::strtoull(env, nullptr, 10)
                          : std::uint64_t{0};
  }();
  return base;
}

/// Deterministic per-case seed: the case id itself by default, or a
/// splitmix64-style mix of (CKNN_FUZZ_SEED, case id) when overridden.
inline std::uint64_t FuzzSeed(std::uint64_t case_id) {
  const std::uint64_t base = FuzzBaseSeed();
  if (base == 0) return case_id;
  std::uint64_t z = base + case_id * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Iteration budget: `default_iters`, scaled by CKNN_FUZZ_SCALE and clamped
/// to [1, hard_cap] so the suite stays bounded no matter the environment.
inline int FuzzIterations(int default_iters, int hard_cap) {
  static const double scale = [] {
    const char* env = std::getenv("CKNN_FUZZ_SCALE");
    const double s = env != nullptr ? std::atof(env) : 1.0;
    return s > 0.0 ? s : 1.0;
  }();
  const double scaled = static_cast<double>(default_iters) * scale;
  if (scaled < 1.0) return 1;
  if (scaled > static_cast<double>(hard_cap)) return hard_cap;
  return static_cast<int>(scaled);
}

}  // namespace cknn::testing

#endif  // CKNN_TESTS_FUZZ_UTIL_H_
