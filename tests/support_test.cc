/**
 * @file
 * Unit tests for the support layer: RNG determinism and statistical
 * sanity, alias sampling, Zipf weights, running stats, histograms,
 * table formatting, the non-owning FunctionRef, and the lock-free
 * MPSC ring the engine's shard queues are built on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <sstream>
#include <thread>

#include "support/bounded_ring.hh"
#include "support/function_ref.hh"
#include "support/random.hh"
#include "support/stats.hh"
#include "support/table.hh"

using namespace hotpath;

TEST(SplitMix64Test, KnownSequenceIsDeterministic)
{
    SplitMix64 a(12345);
    SplitMix64 b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge)
{
    SplitMix64 a(1);
    SplitMix64 b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, BoundedStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(RngTest, BoundedCoversAllResidues)
{
    Rng rng(11);
    std::map<std::uint64_t, int> seen;
    for (int i = 0; i < 10000; ++i)
        ++seen[rng.nextBounded(8)];
    EXPECT_EQ(seen.size(), 8u);
    for (const auto &[value, count] : seen)
        EXPECT_GT(count, 1000); // roughly uniform, ~1250 expected
}

TEST(RngTest, BoundedDrawsArePinned)
{
    // 64 draws per bound from one seed, folded into an FNV-1a digest
    // together with the raw draw that follows them (so a change in how
    // many raw draws a rejection consumes shows too). At the two
    // largest bounds a raw draw below the bound is common, so the
    // rejection threshold is computed and applied there as well.
    struct Pin
    {
        std::uint64_t bound;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {1, 0xdd7ef3ceca918baaull},
        {7, 0xb079d47838cdbc28ull},
        {(1ull << 32) + 3, 0x39e1fa9bfd43088eull},
        {(1ull << 63) + 1, 0xc5bad5b10fd103dbull},
        {~0ull, 0x578cc4fc04c3df28ull},
    };
    for (const Pin &pin : pins) {
        Rng rng(20261019);
        std::uint64_t h = 1469598103934665603ull;
        const auto mix = [&h](std::uint64_t v) {
            h ^= v;
            h *= 1099511628211ull;
        };
        for (int i = 0; i < 64; ++i) {
            const std::uint64_t draw = rng.nextBounded(pin.bound);
            ASSERT_LT(draw, pin.bound);
            mix(draw);
        }
        mix(rng.next());
        EXPECT_EQ(h, pin.digest) << "bound " << pin.bound;
    }
}

TEST(RngTest, RangeIsInclusive)
{
    Rng rng(3);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const std::int64_t v = rng.nextInRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval)
{
    Rng rng(5);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.nextDouble();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(RngTest, BernoulliMatchesProbability)
{
    Rng rng(9);
    int heads = 0;
    for (int i = 0; i < 100000; ++i)
        heads += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(heads / 100000.0, 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes)
{
    Rng rng(10);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(RngTest, ForkedStreamsAreIndependentButDeterministic)
{
    Rng a(1);
    Rng b(1);
    Rng fa = a.fork();
    Rng fb = b.fork();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(fa.next(), fb.next());
    EXPECT_NE(fa.next(), a.next());
}

TEST(AliasSamplerTest, SingleOutcome)
{
    AliasSampler sampler({5.0});
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(sampler.sample(rng), 0u);
}

TEST(AliasSamplerTest, NormalizesWeights)
{
    AliasSampler sampler({2.0, 6.0});
    EXPECT_NEAR(sampler.probabilityOf(0), 0.25, 1e-12);
    EXPECT_NEAR(sampler.probabilityOf(1), 0.75, 1e-12);
}

TEST(AliasSamplerTest, EmpiricalMatchesWeights)
{
    const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
    AliasSampler sampler(weights);
    Rng rng(1234);
    std::vector<int> counts(4, 0);
    const int draws = 200000;
    for (int i = 0; i < draws; ++i)
        ++counts[sampler.sample(rng)];
    for (std::size_t i = 0; i < weights.size(); ++i) {
        EXPECT_NEAR(counts[i] / static_cast<double>(draws),
                    weights[i] / 10.0, 0.01);
    }
}

TEST(AliasSamplerTest, ZeroWeightNeverSampled)
{
    AliasSampler sampler({1.0, 0.0, 1.0});
    Rng rng(6);
    for (int i = 0; i < 10000; ++i)
        EXPECT_NE(sampler.sample(rng), 1u);
}

TEST(ZipfWeightsTest, MonotoneDecreasing)
{
    const std::vector<double> w = zipfWeights(10, 1.1);
    ASSERT_EQ(w.size(), 10u);
    for (std::size_t i = 1; i < w.size(); ++i)
        EXPECT_LT(w[i], w[i - 1]);
}

TEST(ZipfWeightsTest, SkewZeroIsUniform)
{
    const std::vector<double> w = zipfWeights(5, 0.0);
    for (double v : w)
        EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(RunningStatTest, MeanAndVariance)
{
    RunningStat stat;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stat.add(x);
    EXPECT_EQ(stat.count(), 8u);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
    EXPECT_NEAR(stat.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(stat.min(), 2.0);
    EXPECT_DOUBLE_EQ(stat.max(), 9.0);
    EXPECT_DOUBLE_EQ(stat.sum(), 40.0);
}

TEST(RunningStatTest, EmptyIsZero)
{
    RunningStat stat;
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
}

TEST(RunningStatTest, SingleSample)
{
    RunningStat stat;
    stat.add(3.5);
    EXPECT_DOUBLE_EQ(stat.mean(), 3.5);
    EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stat.stddev(), 0.0);
}

TEST(HistogramTest, BucketsAndOverflow)
{
    Histogram hist(0.0, 10.0, 10);
    hist.add(-1.0);
    hist.add(0.0);
    hist.add(5.5);
    hist.add(9.999);
    hist.add(10.0);
    hist.add(42.0);
    EXPECT_EQ(hist.count(), 6u);
    EXPECT_EQ(hist.underflow(), 1u);
    EXPECT_EQ(hist.overflow(), 2u);
    EXPECT_EQ(hist.bucketCount(0), 1u);
    EXPECT_EQ(hist.bucketCount(5), 1u);
    EXPECT_EQ(hist.bucketCount(9), 1u);
}

TEST(HistogramTest, QuantileOfUniformFill)
{
    Histogram hist(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        hist.add(i + 0.5);
    EXPECT_NEAR(hist.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(hist.quantile(0.9), 90.0, 1.5);
    EXPECT_NEAR(hist.quantile(0.1), 10.0, 1.5);
}

TEST(TableTest, FormatsAlignedColumns)
{
    TextTable table;
    table.setHeader({"name", "count"});
    table.beginRow();
    table.addCell(std::string("alpha"));
    table.addCell(std::uint64_t{12345});
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("12,345"), std::string::npos);
    EXPECT_NE(out.find("| name"), std::string::npos);
}

TEST(TableTest, CsvOutput)
{
    TextTable table;
    table.setHeader({"a", "b"});
    table.beginRow();
    table.addCell(1.5, 1);
    table.addPercentCell(99.61, 1);
    std::ostringstream os;
    table.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1.5,99.6%\n");
}

TEST(FormattingTest, Commas)
{
    EXPECT_EQ(formatWithCommas(0), "0");
    EXPECT_EQ(formatWithCommas(999), "999");
    EXPECT_EQ(formatWithCommas(1000), "1,000");
    EXPECT_EQ(formatWithCommas(1234567), "1,234,567");
    EXPECT_EQ(formatWithCommas(62125), "62,125");
}

TEST(FormattingTest, DoublesAndPercents)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatPercent(97.5, 1), "97.5%");
}

// FunctionRef ------------------------------------------------------

namespace
{

int
freeAddOne(int x)
{
    return x + 1;
}

int
invokeRef(support::FunctionRef<int(int)> fn, int x)
{
    return fn(x);
}

} // namespace

TEST(FunctionRefTest, InvokesLambdaWithCapture)
{
    int calls = 0;
    auto lambda = [&calls](int x) {
        ++calls;
        return x * 2;
    };
    EXPECT_EQ(invokeRef(lambda, 21), 42);
    EXPECT_EQ(calls, 1);
}

TEST(FunctionRefTest, InvokesFunctionPointer)
{
    // A function pointer is a callable object like any other; the
    // ref points at the pointer variable, which must stay alive.
    int (*fn)(int) = &freeAddOne;
    EXPECT_EQ(invokeRef(fn, 41), 42);
}

TEST(FunctionRefTest, InvokesConstCallable)
{
    const auto lambda = [](int x) { return x - 1; };
    support::FunctionRef<int(int)> ref(lambda);
    EXPECT_EQ(ref(43), 42);
}

TEST(FunctionRefTest, WrapsStdFunctionWithoutCopying)
{
    int calls = 0;
    std::function<int(int)> heavy = [&calls](int x) {
        ++calls;
        return x;
    };
    support::FunctionRef<int(int)> ref(heavy);
    EXPECT_EQ(ref(7), 7);
    EXPECT_EQ(ref(9), 9);
    EXPECT_EQ(calls, 2);
}

TEST(FunctionRefTest, MutatesThroughReference)
{
    // The callable must be a named object: a FunctionRef does not
    // own its target, so binding a temporary lambda would dangle.
    std::vector<int> seen;
    auto record = [&seen](int x) { seen.push_back(x); };
    support::FunctionRef<void(int)> ref(record);
    ref(1);
    ref(2);
    EXPECT_EQ(seen, (std::vector<int>{1, 2}));
}

// BoundedRing ------------------------------------------------------

TEST(MpscRingTest, CapacityRoundsUpToPowerOfTwo)
{
    support::BoundedRing<int> ring(5);
    EXPECT_EQ(ring.capacity(), 8u);
    support::BoundedRing<int> exact(16);
    EXPECT_EQ(exact.capacity(), 16u);
}

TEST(MpscRingTest, FifoOrderSingleThread)
{
    support::BoundedRing<int> ring(8);
    EXPECT_TRUE(ring.empty());
    for (int i = 0; i < 8; ++i) {
        int v = i;
        EXPECT_TRUE(ring.tryPush(v));
    }
    EXPECT_FALSE(ring.empty());
    for (int i = 0; i < 8; ++i) {
        int out = -1;
        EXPECT_TRUE(ring.tryPop(out));
        EXPECT_EQ(out, i);
    }
    EXPECT_TRUE(ring.empty());
    int out;
    EXPECT_FALSE(ring.tryPop(out));
}

TEST(MpscRingTest, FullPushFailsAndLeavesValueIntact)
{
    support::BoundedRing<std::string> ring(2);
    std::string a = "a";
    std::string b = "b";
    ASSERT_TRUE(ring.tryPush(a));
    ASSERT_TRUE(ring.tryPush(b));

    // The rejected value must survive for the caller to retry with -
    // the engine's nonblocking path hands it back to the producer.
    std::string c = "keep-me";
    EXPECT_FALSE(ring.tryPush(c));
    EXPECT_EQ(c, "keep-me");

    std::string out;
    EXPECT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, "a");
    EXPECT_TRUE(ring.tryPush(c));
}

TEST(MpscRingTest, PopBatchDrainsInOrderUpToLimit)
{
    support::BoundedRing<int> ring(16);
    for (int i = 0; i < 10; ++i) {
        int v = i;
        ASSERT_TRUE(ring.tryPush(v));
    }
    std::vector<int> batch;
    ring.popBatch(batch, 4);
    EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
    batch.clear();
    ring.popBatch(batch, 100);
    EXPECT_EQ(batch, (std::vector<int>{4, 5, 6, 7, 8, 9}));
    EXPECT_TRUE(ring.empty());
}

TEST(MpscRingTest, SlotsAreReusableAcrossWraps)
{
    support::BoundedRing<int> ring(4);
    for (int round = 0; round < 100; ++round) {
        for (int i = 0; i < 4; ++i) {
            int v = round * 4 + i;
            ASSERT_TRUE(ring.tryPush(v));
        }
        int v = -1;
        ASSERT_FALSE(ring.tryPush(v));
        for (int i = 0; i < 4; ++i) {
            int out;
            ASSERT_TRUE(ring.tryPop(out));
            ASSERT_EQ(out, round * 4 + i);
        }
    }
}

TEST(MpscRingTest, MultiProducerDeliversEveryValueOnce)
{
    // 4 producers, one consumer, bounded capacity so producers spin
    // on a full ring: every pushed value must arrive exactly once,
    // and each producer's own values in order.
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 20000;
    support::BoundedRing<std::uint64_t> ring(64);

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&ring, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                std::uint64_t v =
                    (static_cast<std::uint64_t>(p) << 32) |
                    static_cast<std::uint64_t>(i);
                while (!ring.tryPush(v))
                    std::this_thread::yield();
            }
        });
    }

    std::vector<std::uint64_t> next(kProducers, 0);
    std::uint64_t received = 0;
    std::vector<std::uint64_t> batch;
    while (received <
           static_cast<std::uint64_t>(kProducers) * kPerProducer) {
        batch.clear();
        ring.popBatch(batch, 32);
        if (batch.empty()) {
            std::this_thread::yield();
            continue;
        }
        for (const std::uint64_t v : batch) {
            const auto p = static_cast<std::size_t>(v >> 32);
            const std::uint64_t seq = v & 0xffffffffu;
            ASSERT_LT(p, static_cast<std::size_t>(kProducers));
            ASSERT_EQ(seq, next[p]) << "producer " << p;
            ++next[p];
            ++received;
        }
    }
    for (std::thread &producer : producers)
        producer.join();
    EXPECT_TRUE(ring.empty());
    for (int p = 0; p < kProducers; ++p)
        EXPECT_EQ(next[p],
                  static_cast<std::uint64_t>(kPerProducer));
}

TEST(BoundedRingTest, ProducersPoppingOnFullLoseAndDuplicateNothing)
{
    // The engine's drop-oldest producers pop from the ring they push
    // to: 4 producers, each of which pops one value (and records it)
    // whenever its push finds the ring full, race one batch-draining
    // consumer. Every value must surface exactly once - in a consumer
    // batch or in some producer's record - and every popper must see
    // each producer's values in push order.
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 20000;
    support::BoundedRing<std::uint64_t> ring(16);

    std::vector<std::vector<std::uint64_t>> shed(kProducers);
    std::atomic<int> finished{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                std::uint64_t v =
                    (static_cast<std::uint64_t>(p) << 32) |
                    static_cast<std::uint64_t>(i);
                while (!ring.tryPush(v)) {
                    std::uint64_t oldest = 0;
                    if (ring.tryPop(oldest))
                        shed[p].push_back(oldest);
                }
            }
            finished.fetch_add(1, std::memory_order_release);
        });
    }

    std::vector<std::uint64_t> consumed;
    std::vector<std::uint64_t> batch;
    for (;;) {
        const bool last =
            finished.load(std::memory_order_acquire) == kProducers;
        batch.clear();
        ring.popBatch(batch, 8);
        consumed.insert(consumed.end(), batch.begin(), batch.end());
        if (batch.empty()) {
            if (last)
                break;
            std::this_thread::yield();
        }
    }
    for (std::thread &producer : producers)
        producer.join();
    EXPECT_TRUE(ring.empty());

    std::vector<int> seen(
        static_cast<std::size_t>(kProducers) * kPerProducer, 0);
    auto account = [&](const std::vector<std::uint64_t> &popped) {
        std::vector<std::int64_t> last(kProducers, -1);
        for (const std::uint64_t v : popped) {
            const auto p = static_cast<std::size_t>(v >> 32);
            const auto i = static_cast<std::int64_t>(v & 0xffffffffu);
            ASSERT_LT(p, static_cast<std::size_t>(kProducers));
            ASSERT_LT(i, kPerProducer);
            ASSERT_GT(i, last[p]) << "producer " << p;
            last[p] = i;
            ++seen[p * kPerProducer + static_cast<std::size_t>(i)];
        }
    };
    account(consumed);
    for (const std::vector<std::uint64_t> &record : shed)
        account(record);
    for (std::size_t k = 0; k < seen.size(); ++k)
        ASSERT_EQ(seen[k], 1) << "value " << k;
}
