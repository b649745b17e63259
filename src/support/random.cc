#include "support/random.hh"

#include <cmath>

#include "support/logging.hh"

namespace hotpath
{

namespace
{

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

std::uint64_t
SplitMix64::next()
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    SplitMix64 seeder(seed);
    for (auto &word : s)
        word = seeder.next();
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;

    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);

    return result;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    HOTPATH_ASSERT(bound > 0);
    // Lemire-style rejection to remove modulo bias: reject r below
    // 2^64 mod bound. That threshold is itself below `bound`, so only
    // a draw below `bound` needs it, and only then is it computed.
    for (;;) {
        const std::uint64_t r = next();
        if (r >= bound || r >= (~bound + 1) % bound)
            return r % bound;
    }
}

std::int64_t
Rng::nextInRange(std::int64_t lo, std::int64_t hi)
{
    HOTPATH_ASSERT(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next());
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

Rng
Rng::fork()
{
    return Rng(next());
}

AliasSampler::AliasSampler(const std::vector<double> &weights)
{
    const std::size_t n = weights.size();
    HOTPATH_ASSERT(n > 0, "alias sampler needs at least one weight");

    double total = 0.0;
    for (double w : weights) {
        HOTPATH_ASSERT(w >= 0.0, "negative weight");
        total += w;
    }
    HOTPATH_ASSERT(total > 0.0, "all weights are zero");

    normalized.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        normalized[i] = weights[i] / total;

    probability.assign(n, 0.0);
    alias.assign(n, 0);

    // Classic two-worklist construction over scaled probabilities.
    std::vector<double> scaled(n);
    std::vector<std::uint32_t> small, large;
    small.reserve(n);
    large.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        scaled[i] = normalized[i] * static_cast<double>(n);
        if (scaled[i] < 1.0)
            small.push_back(static_cast<std::uint32_t>(i));
        else
            large.push_back(static_cast<std::uint32_t>(i));
    }

    while (!small.empty() && !large.empty()) {
        const std::uint32_t s_idx = small.back();
        small.pop_back();
        const std::uint32_t l_idx = large.back();
        large.pop_back();

        probability[s_idx] = scaled[s_idx];
        alias[s_idx] = l_idx;
        scaled[l_idx] = (scaled[l_idx] + scaled[s_idx]) - 1.0;
        if (scaled[l_idx] < 1.0)
            small.push_back(l_idx);
        else
            large.push_back(l_idx);
    }
    for (std::uint32_t idx : large)
        probability[idx] = 1.0;
    for (std::uint32_t idx : small)
        probability[idx] = 1.0; // numerical residue

    for (std::size_t i = 0; i < n; ++i) {
        if (probability[i] >= 1.0)
            alias[i] = static_cast<std::uint32_t>(i);
    }
}

std::size_t
AliasSampler::sample(Rng &rng) const
{
    const std::size_t slot = rng.nextBounded(probability.size());
    return rng.nextDouble() < probability[slot] ? slot : alias[slot];
}

std::vector<double>
zipfWeights(std::size_t n, double s)
{
    HOTPATH_ASSERT(n > 0);
    std::vector<double> w(n);
    for (std::size_t k = 1; k <= n; ++k)
        w[k - 1] = 1.0 / std::pow(static_cast<double>(k), s);
    return w;
}

} // namespace hotpath
