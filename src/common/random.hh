/**
 * @file
 * Deterministic pseudo-random number generator for workload synthesis.
 *
 * A fixed, seedable generator (xoshiro256**) keeps every simulation
 * bit-reproducible across platforms and standard-library versions;
 * std::mt19937 distributions are not portable across libstdc++/libc++,
 * so all distribution shaping is done here by hand.
 */

#ifndef VSV_COMMON_RANDOM_HH
#define VSV_COMMON_RANDOM_HH

#include <array>
#include <cmath>
#include <cstdint>

namespace vsv
{

/**
 * A fixed bound for Rng::nextBounded() with its rejection threshold
 * computed once. A zero bound is representable; drawing from it fails
 * exactly like nextBounded(0).
 */
struct BoundedRange
{
    explicit BoundedRange(std::uint64_t bound)
        : bound(bound), threshold(bound ? (0 - bound) % bound : 0)
    {
    }

    std::uint64_t bound;
    std::uint64_t threshold;  ///< draws below this are rejected
};

/** Portable deterministic RNG (xoshiro256**). */
class Rng
{
  public:
    /** Seed via splitmix64 so nearby seeds give uncorrelated streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;

        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound). bound must be nonzero. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        return nextBounded(BoundedRange(bound));
    }

    /** Same draw as nextBounded(range.bound), threshold precomputed. */
    std::uint64_t
    nextBounded(const BoundedRange &range)
    {
        if (range.bound == 0)
            zeroBound();
        // Rejection sampling to avoid modulo bias.
        for (;;) {
            const std::uint64_t r = next();
            if (r >= range.threshold)
                return r % range.bound;
        }
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /**
     * Geometric draw: number of failures before the first success with
     * success probability p (p in (0,1]); returns values >= 0.
     */
    std::uint64_t nextGeometric(double p);

    /**
     * The draw of nextGeometric(p) for p in (0,1), given
     * log_q = std::log1p(-p) computed once by the caller.
     */
    std::uint64_t
    nextGeometricLog(double log_q)
    {
        if (!(log_q < 0.0))
            geometricOutOfRange();
        const double u = nextDouble();
        return static_cast<std::uint64_t>(std::log1p(-u) / log_q);
    }

    /** Raw generator state, for snapshot/restore. */
    std::array<std::uint64_t, 4> stateWords() const;

    /** Overwrite the generator state with previously saved words. */
    void setStateWords(const std::array<std::uint64_t, 4> &words);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    [[noreturn]] static void zeroBound();
    [[noreturn]] static void geometricOutOfRange();

    std::uint64_t state[4];
};

} // namespace vsv

#endif // VSV_COMMON_RANDOM_HH
