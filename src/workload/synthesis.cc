#include "workload/synthesis.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/logging.hh"

namespace hotpath
{

namespace
{

/** Deterministic per-path jitter in [lo, hi] from a hash. */
double
jitter(std::uint64_t key, std::uint64_t salt, double lo, double hi)
{
    SplitMix64 mixer(key * 0x9e3779b97f4a7c15ull + salt);
    const double u =
        static_cast<double>(mixer.next() >> 11) * 0x1.0p-53;
    return lo + u * (hi - lo);
}

} // namespace

std::vector<std::uint64_t>
buildGeometricTier(std::size_t n, std::uint64_t sum,
                   std::uint64_t min_freq)
{
    if (n == 0) {
        HOTPATH_ASSERT(sum == 0, "flow assigned to an empty tier");
        return {};
    }
    HOTPATH_ASSERT(min_freq >= 1);
    HOTPATH_ASSERT(sum >= n * min_freq,
                   "geometric tier infeasible: sum too small");

    const double a = static_cast<double>(min_freq);
    const double target = static_cast<double>(sum);
    const double count = static_cast<double>(n);

    // Sum of a * r^k for k in [0, n): monotone increasing in r.
    auto tier_sum = [&](double r) {
        if (r <= 1.0 + 1e-12)
            return a * count;
        return a * (std::pow(r, count) - 1.0) / (r - 1.0);
    };

    double lo = 1.0;
    double hi = 2.0;
    while (tier_sum(hi) < target && hi < 1e9)
        hi *= 2.0;
    for (int iter = 0; iter < 200; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (tier_sum(mid) < target)
            lo = mid;
        else
            hi = mid;
    }
    const double r = 0.5 * (lo + hi);

    // Descending frequencies; element 0 is the hottest.
    std::vector<std::uint64_t> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double value =
            a * std::pow(r, static_cast<double>(n - 1 - i));
        out[i] = std::max<std::uint64_t>(
            min_freq, static_cast<std::uint64_t>(std::llround(value)));
    }

    // Exact-sum fixup on the largest elements, preserving the floor.
    std::int64_t diff = static_cast<std::int64_t>(sum);
    for (std::uint64_t v : out)
        diff -= static_cast<std::int64_t>(v);
    std::size_t i = 0;
    while (diff != 0) {
        HOTPATH_ASSERT(i < out.size() * 4,
                       "geometric tier fixup did not converge");
        std::uint64_t &v = out[i % out.size()];
        if (diff > 0) {
            v += static_cast<std::uint64_t>(diff);
            diff = 0;
        } else {
            const std::uint64_t room = v - min_freq;
            const std::uint64_t cut = std::min<std::uint64_t>(
                room, static_cast<std::uint64_t>(-diff));
            v -= cut;
            diff += static_cast<std::int64_t>(cut);
        }
        ++i;
    }
    std::sort(out.begin(), out.end(), std::greater<>());
    return out;
}

std::vector<std::uint64_t>
buildZipfTier(std::size_t n, std::uint64_t sum, std::uint64_t max_freq,
              double skew)
{
    if (n == 0) {
        HOTPATH_ASSERT(sum == 0, "flow assigned to an empty tier");
        return {};
    }
    HOTPATH_ASSERT(max_freq >= 1);
    HOTPATH_ASSERT(sum >= n, "zipf tier infeasible: sum too small");
    HOTPATH_ASSERT(sum <= n * max_freq,
                   "zipf tier infeasible: sum exceeds the cap");

    std::vector<std::uint64_t> out(n, 1);
    std::uint64_t remaining = sum - n;
    if (remaining == 0)
        return out;

    // Proportional pass over Zipf weights, capped per element.
    const std::vector<double> weights = zipfWeights(n, skew);
    const double total_weight =
        std::accumulate(weights.begin(), weights.end(), 0.0);
    for (std::size_t i = 0; i < n && remaining > 0; ++i) {
        const double share =
            static_cast<double>(sum - n) * weights[i] / total_weight;
        std::uint64_t give = static_cast<std::uint64_t>(share);
        give = std::min(give, max_freq - out[i]);
        give = std::min(give, remaining);
        out[i] += give;
        remaining -= give;
    }

    // Greedy pass for the residue, hottest ranks first.
    for (std::size_t i = 0; i < n && remaining > 0; ++i) {
        const std::uint64_t give =
            std::min(remaining, max_freq - out[i]);
        out[i] += give;
        remaining -= give;
    }
    HOTPATH_ASSERT(remaining == 0, "zipf tier fixup did not converge");
    return out;
}

PrefixCountTree::PrefixCountTree(const std::vector<std::uint64_t> &counts)
{
    // Level sizes, leaves up, until one group holds a whole level.
    std::size_t size = counts.size();
    std::size_t total = 0;
    for (;;) {
        levelStart.push_back(total);
        total += (size + kFanOut - 1) / kFanOut * kFanOut;
        if (size <= kFanOut)
            break;
        size = (size + kFanOut - 1) / kFanOut;
    }
    nodes.assign(total, 0);
    std::copy(counts.begin(), counts.end(), nodes.begin());
    for (std::size_t level = 1; level < levelStart.size(); ++level) {
        const std::size_t below = levelStart[level - 1];
        for (std::size_t i = below; i < levelStart[level]; ++i)
            nodes[levelStart[level] + (i - below) / kFanOut] += nodes[i];
    }
}

void
PrefixCountTree::subtract(std::size_t leaf, std::uint64_t amount)
{
    for (const std::size_t start : levelStart) {
        nodes[start + leaf] -= amount;
        leaf /= kFanOut;
    }
}

std::size_t
PrefixCountTree::findPrefix(std::uint64_t target) const
{
    // Top down: in each group pick the child whose span holds the
    // target (branch-free: count the running sums at or below it).
    std::size_t node = 0;
    for (std::size_t level = levelStart.size(); level-- > 0;) {
        const std::uint64_t *group =
            nodes.data() + levelStart[level] + node * kFanOut;
        std::size_t child = 0;
        std::uint64_t before = 0;
        std::uint64_t sum = 0;
        for (std::size_t k = 0; k < kFanOut; ++k) {
            sum += group[k];
            const bool past = sum <= target;
            child += past;
            before = past ? sum : before;
        }
        target -= before;
        node = node * kFanOut + child;
    }
    return node;
}

BurstLength::BurstLength(double mean_run_length)
    : isFixed(mean_run_length <= 1.0),
      logKeep(std::log1p(-(isFixed ? 1.0 : 1.0 / mean_run_length)))
{
    for (std::size_t k = 0; k < kBounds; ++k)
        bounds[k] = -std::expm1(static_cast<double>(k + 1) * logKeep);
}

std::uint64_t
BurstLength::fromUniform(double u) const
{
    // The bounds ascend, so the bounds at or below u are a prefix.
    // Most bursts are short: scan it from the bottom.
    std::size_t below = 0;
    while (below < kBounds && bounds[below] <= u)
        ++below;
    if (below < kBounds && bounds[below] - u >= kGuard &&
        (below == 0 || u - bounds[below - 1] >= kGuard))
        return 1 + below;
    double extra = std::log1p(-u) / logKeep;
    if (!(extra >= 0.0))
        extra = 0.0;
    extra = std::min(extra, 1e9);
    return 1 + static_cast<std::uint64_t>(extra);
}

CalibratedWorkload::CalibratedWorkload(const SpecTarget &target,
                                       WorkloadConfig config)
    : spec(target), cfg(config)
{
    HOTPATH_ASSERT(cfg.flowScale > 0.0 && cfg.flowScale <= 1.0,
                   "flow scale out of range");
    HOTPATH_ASSERT(spec.hotPaths <= spec.paths);
    HOTPATH_ASSERT(spec.heads <= spec.paths,
                   "more heads than paths is unsupported");
    buildFrequencies();
    assignHeads();
    assignShapes();
}

void
CalibratedWorkload::buildFrequencies()
{
    const std::uint64_t n_hot = spec.hotPaths;
    const std::uint64_t n_cold = spec.paths - spec.hotPaths;

    std::uint64_t f = static_cast<std::uint64_t>(
        std::llround(spec.flowMillions * 1e6 * cfg.flowScale));

    for (int attempt = 0;; ++attempt) {
        HOTPATH_ASSERT(attempt < 64, "workload rescale did not converge");
        const std::uint64_t h = static_cast<std::uint64_t>(
            cfg.hotFraction * static_cast<double>(f));
        std::uint64_t s_hot = static_cast<std::uint64_t>(
            std::llround(spec.hotFlowPercent / 100.0 *
                         static_cast<double>(f)));
        if (n_cold == 0)
            s_hot = f; // no cold tier to absorb the rounding residue
        s_hot = std::min(s_hot, f);
        const std::uint64_t s_cold = f - s_hot;

        const bool feasible = h >= 1 && s_hot >= n_hot * (h + 1) &&
                              s_cold >= n_cold &&
                              (n_cold == 0 || s_cold <= n_cold * h) &&
                              (n_cold > 0 || s_cold == 0);
        if (feasible) {
            flow = f;
            threshold = h;
            freq = buildGeometricTier(
                static_cast<std::size_t>(n_hot), s_hot, h + 1);
            std::vector<std::uint64_t> cold = buildZipfTier(
                static_cast<std::size_t>(n_cold), s_cold, h);
            freq.insert(freq.end(), cold.begin(), cold.end());
            return;
        }
        HOTPATH_ASSERT(cfg.autoRescale,
                       "workload infeasible at this flow scale; "
                       "enable autoRescale or raise flowScale");
        f += f / 4 + 1000;
    }
}

void
CalibratedWorkload::assignHeads()
{
    const std::size_t n_hot = spec.hotPaths;
    const std::size_t n_cold = spec.paths - spec.hotPaths;
    const std::size_t total_heads = spec.heads;

    // Hot paths share heads lightly (~1.5 hot paths per hot head):
    // loops usually have one or two dominant paths (paper S4.1).
    std::size_t hot_heads =
        n_hot == 0 ? 0 : std::max<std::size_t>(1, (2 * n_hot + 2) / 3);
    hot_heads = std::min(hot_heads, total_heads);
    // The cold tier must be able to claim every remaining fresh head.
    const std::size_t fresh_needed = total_heads - hot_heads;
    HOTPATH_ASSERT(fresh_needed <= n_cold || n_cold == 0,
                   "cannot realize the head count: too few cold paths");

    head.assign(spec.paths, kInvalidHead);
    for (std::size_t i = 0; i < n_hot; ++i)
        head[i] = static_cast<HeadIndex>(i * hot_heads / n_hot);

    // First cold paths claim the remaining fresh heads, the rest
    // share across all heads (cold iterations at hot heads included,
    // which is what makes NET's speculative pick imperfect).
    std::size_t next = 0;
    for (std::size_t j = 0; j < n_cold; ++j) {
        const std::size_t p = n_hot + j;
        if (j < fresh_needed) {
            head[p] = static_cast<HeadIndex>(hot_heads + j);
        } else {
            head[p] = static_cast<HeadIndex>(next % total_heads);
            next += 7; // co-prime stride spreads deterministically
        }
    }
    headCount = total_heads;

    if (n_hot == spec.paths && hot_heads < total_heads) {
        // Degenerate: all paths hot but more heads requested; spread
        // hot paths over all heads instead.
        for (std::size_t i = 0; i < n_hot; ++i)
            head[i] = static_cast<HeadIndex>(i * total_heads / n_hot);
    }
}

void
CalibratedWorkload::assignShapes()
{
    blocks.resize(spec.paths);
    instructions.resize(spec.paths);
    for (std::size_t p = 0; p < spec.paths; ++p) {
        const double b_jitter = jitter(p, cfg.seed, 0.6, 1.4);
        const double i_jitter = jitter(p, cfg.seed ^ 0xabcd, 0.7, 1.3);
        const auto b = static_cast<std::uint32_t>(std::max<long long>(
            2, std::llround(spec.avgBlocksPerPath * b_jitter)));
        blocks[p] = b;
        instructions[p] = std::max(
            b, static_cast<std::uint32_t>(std::llround(
                   b * spec.instrPerBlock * i_jitter)));
    }
}

std::uint64_t
CalibratedWorkload::hotFlow() const
{
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < spec.hotPaths; ++p)
        total += freq[p];
    return total;
}

PathEvent
CalibratedWorkload::eventFor(PathIndex path) const
{
    HOTPATH_ASSERT(path < freq.size(), "bad path index");
    PathEvent event;
    event.path = path;
    event.head = head[path];
    event.blocks = blocks[path];
    event.branches = blocks[path]; // roughly one branch per block
    event.instructions = instructions[path];
    return event;
}

void
CalibratedWorkload::generateRuns(
    std::uint64_t salt,
    support::FunctionRef<void(PathIndex, std::uint64_t)> emit) const
{
    PrefixCountTree tree(freq);
    std::uint64_t total = flow;
    Rng rng(cfg.seed ^ (salt * 0x9e3779b97f4a7c15ull + 0x1234));
    const BurstLength burst(cfg.meanRunLength);

    while (total > 0) {
        const std::uint64_t pick = rng.nextBounded(total);
        const std::size_t path = tree.findPrefix(pick);
        HOTPATH_ASSERT(tree.count(path) > 0, "draw hit an empty path");

        // Burst: geometric run length with the configured mean.
        std::uint64_t run = 1;
        if (!burst.fixed())
            run = burst.fromUniform(rng.nextDouble());
        run = std::min(run, tree.count(path));

        emit(static_cast<PathIndex>(path), run);
        tree.subtract(path, run);
        total -= run;
    }
}

std::vector<PathEvent>
CalibratedWorkload::materializeStream(std::uint64_t salt) const
{
    std::vector<PathEvent> stream;
    stream.reserve(flow);
    generateRuns(salt, [&](PathIndex path, std::uint64_t run) {
        const PathEvent event = eventFor(path);
        for (std::uint64_t k = 0; k < run; ++k)
            stream.push_back(event);
    });
    return stream;
}

} // namespace hotpath
