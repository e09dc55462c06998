/**
 * @file
 * Pins the synthetic workload streams: an FNV-1a digest of every field
 * of the first 200 k micro-ops of each calibrated SPEC2K profile and
 * of edge profiles that reach the generator's rarer paths (no
 * geometric draw, every cold pattern, jittered multi-stream scans,
 * software prefetch, mutating chains, heavy rejection sampling).
 *
 * The expected digests were recorded from the original generator
 * (per-op pc division, per-op branch-slot hash, out-of-line RNG
 * draws). Any faster generator must deliver the same stream bit for
 * bit, including across a snapshot/restore in the middle of a batch.
 * A warmup horizon (WorkloadGenerator::setWarmupHorizon) may change
 * the dependence distances of the ops it covers and nothing else.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "snapshot/snapshot.hh"
#include "workload/workload.hh"

namespace vsv
{
namespace
{

constexpr std::uint64_t pinOps = 200'000;

/** FNV-1a 64 over the little-endian bytes of each field. */
class Digest
{
  public:
    void
    add(std::uint64_t v, unsigned bytes)
    {
        for (unsigned i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    void
    add(const MicroOp &op)
    {
        add(static_cast<std::uint8_t>(op.cls), 1);
        add(static_cast<std::uint8_t>(op.brKind), 1);
        add(op.taken ? 1 : 0, 1);
        add(op.depDist1, 4);
        add(op.depDist2, 4);
        add(op.pc, 8);
        add(op.addr, 8);
        add(op.target, 8);
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

std::uint64_t
streamDigest(const WorkloadProfile &profile, std::uint64_t n = pinOps)
{
    WorkloadGenerator gen(profile);
    Digest d;
    for (std::uint64_t i = 0; i < n; ++i)
        d.add(gen.next());
    return d.value();
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

struct Pin
{
    const char *name;
    std::uint64_t digest;
};

/** Recorded from the original generator, in spec2kBenchmarks() order. */
const Pin spec2kPins[] = {
    {"ammp", 0x8c1840effc02a4c4ULL},
    {"applu", 0x58050983b9574dcfULL},
    {"apsi", 0xcae5f73f6466e16bULL},
    {"art", 0x87494982940fa82dULL},
    {"bzip2", 0x6c5fc9f522e18f90ULL},
    {"crafty", 0xcdec592cfc714d6bULL},
    {"eon", 0xb79a1322284efd7eULL},
    {"equake", 0xf7d45febc89795b0ULL},
    {"facerec", 0x51f23414491f2808ULL},
    {"fma3d", 0x8ebe90156b275a04ULL},
    {"galgel", 0xcf4b2f56d78e6103ULL},
    {"gap", 0xf8363997b4f99eccULL},
    {"gcc", 0x666e19e2c1c0a6d6ULL},
    {"gzip", 0xce730da7292f980dULL},
    {"lucas", 0xd54fbe5e5dfc09efULL},
    {"mcf", 0x9fbdaa2bcb74a671ULL},
    {"mesa", 0xd65d2498c5005c3bULL},
    {"mgrid", 0x96ab4d30c8b7bcfdULL},
    {"parser", 0x5cf9f31418733969ULL},
    {"perlbmk", 0x7a450bf35edef7f6ULL},
    {"sixtrack", 0xf56cf734d6f03cf6ULL},
    {"swim", 0x5d83d328339e5075ULL},
    {"twolf", 0xf39e72ac97994106ULL},
    {"vortex", 0xe0ed28313ea739fdULL},
    {"vpr", 0x6092508291b2616aULL},
    {"wupwise", 0xaef16d2df73bc0e7ULL},
};

TEST(StreamPin, EverySpec2kProfile)
{
    const std::vector<std::string> &names = spec2kBenchmarks();
    ASSERT_EQ(names.size(), std::size(spec2kPins));
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(names[i], spec2kPins[i].name);
        const std::uint64_t got = streamDigest(spec2kProfile(names[i]));
        EXPECT_EQ(hex(got), hex(spec2kPins[i].digest))
            << "    {\"" << names[i] << "\", " << hex(got) << "ULL},";
    }
}

/** Edge profiles: each reaches a path the calibrated set barely uses. */
std::vector<WorkloadProfile>
edgeProfiles()
{
    std::vector<WorkloadProfile> out;
    WorkloadProfile base;
    base.coldFrac = 0.3;
    base.coldFootprint = 256 * 1024;

    {   // mean <= 1: success probability 1, producerDistance never draws
        WorkloadProfile p = base;
        p.name = "dep-one";
        p.meanDepDist = 1.0;
        out.push_back(p);
        p.name = "dep-half";
        p.meanDepDist = 0.5;
        out.push_back(p);
    }
    {   // several jittered scan streams, no branches at all
        WorkloadProfile p = base;
        p.name = "scan-jitter";
        p.scanStreams = 3;
        p.scanJitterProb = 0.3;
        p.coldStride = 96;
        p.coldBurst = 4;
        p.branchFrac = 0.0;
        out.push_back(p);
    }
    {   // uniform cold loads and cold stores over an odd footprint
        WorkloadProfile p = base;
        p.name = "random";
        p.coldPattern = ColdPattern::Random;
        p.coldFootprint = 1000003;
        p.storeColdScale = 1.0;
        p.coldConsumerProb = 0.2;
        out.push_back(p);
    }
    {
        WorkloadProfile p = base;
        p.name = "seqchain";
        p.coldPattern = ColdPattern::SeqChain;
        p.coldRegularFrac = 0.25;
        p.regularFootprint = 64 * 1024;
        out.push_back(p);
    }
    {
        WorkloadProfile p = base;
        p.name = "chain";
        p.coldPattern = ColdPattern::Chain;
        p.chainCount = 3;
        out.push_back(p);
    }
    {
        WorkloadProfile p = base;
        p.name = "mutating";
        p.coldPattern = ColdPattern::MutatingChain;
        p.chainCount = 2;
        p.chainMutateProb = 0.2;
        p.coldBurst = 3;
        out.push_back(p);
    }
    {   // software prefetch with a short lookahead and a side stream
        WorkloadProfile p = base;
        p.name = "swpf";
        p.swPrefetchCoverage = 0.5;
        p.swPrefetchLookahead = 3;
        p.coldRegularFrac = 0.2;
        out.push_back(p);
    }
    {   // branch-dense small loop: calls, returns, noisy conditionals
        WorkloadProfile p = base;
        p.name = "branchy";
        p.branchFrac = 0.3;
        p.callFrac = 0.2;
        p.branchNoise = 0.3;
        p.codeFootprint = 1028;
        out.push_back(p);
    }
    {   // footprints just above 2^63: about half of all draws reject
        WorkloadProfile p = base;
        p.name = "reject";
        p.hotFootprint = (1ULL << 63) + 12345;
        p.warmFootprint = (1ULL << 63) + 3;
        p.warmFrac = 0.4;
        p.coldPattern = ColdPattern::Random;
        p.coldFootprint = (1ULL << 63) + 777;
        out.push_back(p);
    }
    {   // regions that are never drawn from may have no footprint
        WorkloadProfile p = base;
        p.name = "zero-footprints";
        p.coldFrac = 0.0;
        p.warmFrac = 0.0;
        p.coldFootprint = 0;
        p.warmFootprint = 0;
        out.push_back(p);
    }
    return out;
}

/** Recorded from the original generator, in edgeProfiles() order. */
const Pin edgePins[] = {
    {"dep-one", 0x5c1f0834999405a1ULL},
    {"dep-half", 0x5c1f0834999405a1ULL},
    {"scan-jitter", 0x97d5d1fc201e6ed5ULL},
    {"random", 0x8b659643626e88e2ULL},
    {"seqchain", 0x1f74f710206638d4ULL},
    {"chain", 0x89925d60c8ef61bbULL},
    {"mutating", 0x257e27f03f94e4a0ULL},
    {"swpf", 0xb1ae5c0bf889e171ULL},
    {"branchy", 0x4d2dc0cafd71e27fULL},
    {"reject", 0xc91bbe382e14dd29ULL},
    {"zero-footprints", 0x91f1d5cce3cd7709ULL},
};

TEST(StreamPin, EdgeProfiles)
{
    const std::vector<WorkloadProfile> profiles = edgeProfiles();
    ASSERT_EQ(profiles.size(), std::size(edgePins));
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        EXPECT_EQ(profiles[i].name, edgePins[i].name);
        const std::uint64_t got = streamDigest(profiles[i]);
        EXPECT_EQ(hex(got), hex(edgePins[i].digest))
            << "    {\"" << profiles[i].name << "\", " << hex(got)
            << "ULL},";
    }
}

TEST(StreamPin, BatchSizeDoesNotChangeTheStream)
{
    for (const WorkloadProfile &p : edgeProfiles()) {
        WorkloadGenerator one(p, 1);
        WorkloadGenerator odd(p, 37);
        Digest a, b;
        for (int i = 0; i < 20'000; ++i) {
            a.add(one.next());
            b.add(odd.next());
        }
        EXPECT_EQ(a.value(), b.value()) << p.name;
    }
}

/** Snapshot mid-batch, restore into a fresh generator, keep digesting:
 *  the joined stream must equal the uninterrupted one. */
TEST(StreamPin, RestoreMidBatchContinuesTheDigest)
{
    std::vector<WorkloadProfile> profiles = {spec2kProfile("mcf"),
                                             spec2kProfile("ammp")};
    for (const WorkloadProfile &p : edgeProfiles())
        profiles.push_back(p);
    for (const WorkloadProfile &p : profiles) {
        const std::uint64_t cut = 100'037;  // not a batch boundary
        ASSERT_NE(cut % WorkloadGenerator::defaultBatchOps, 0u);

        WorkloadGenerator first(p);
        Digest d;
        for (std::uint64_t i = 0; i < cut; ++i)
            d.add(first.next());

        std::stringstream bytes;
        {
            SnapshotWriter writer(bytes, "pin");
            first.snapshot(writer);
            writer.finish();
        }
        WorkloadGenerator second(p);
        SnapshotReader reader(bytes);
        second.restore(reader);
        reader.expectEnd();
        for (std::uint64_t i = cut; i < pinOps; ++i)
            d.add(second.next());

        EXPECT_EQ(second.generated(), pinOps) << p.name;
        EXPECT_EQ(hex(d.value()), hex(streamDigest(p))) << p.name;
    }
}

std::string
snapshotOf(const WorkloadGenerator &gen)
{
    std::ostringstream bytes;
    SnapshotWriter writer(bytes, "pin");
    gen.snapshot(writer);
    writer.finish();
    return bytes.str();
}

/** Every field except the dependence distances. */
bool
sameButDeps(const MicroOp &a, const MicroOp &b)
{
    return a.cls == b.cls && a.brKind == b.brKind && a.taken == b.taken &&
           a.pc == b.pc && a.addr == b.addr && a.target == b.target;
}

bool
same(const MicroOp &a, const MicroOp &b)
{
    return sameButDeps(a, b) && a.depDist1 == b.depDist1 &&
           a.depDist2 == b.depDist2;
}

/**
 * A warmup horizon of N may change only the dependence distances of
 * the first N ops. Checked against the uninterrupted stream, whose
 * digests the tests above pin: the first N ops in every other field,
 * the snapshot at N byte for byte (it holds the RNG streams, the
 * cursors and the ops buffered past N), and every op after N in full.
 */
TEST(StreamPin, WarmupHorizonOnlySkipsTheDependencesItCovers)
{
    std::vector<WorkloadProfile> profiles;
    for (const std::string &name : spec2kBenchmarks())
        profiles.push_back(spec2kProfile(name));
    for (const WorkloadProfile &p : edgeProfiles())
        profiles.push_back(p);

    constexpr std::uint64_t batch = WorkloadGenerator::defaultBatchOps;
    constexpr std::uint64_t horizons[] = {
        0,
        100'037,              // mid-batch
        1'563 * batch,        // on a batch boundary
        pinOps + 4'099,       // beyond the pinned window
    };
    static_assert(horizons[1] % batch != 0);
    constexpr std::uint64_t tail = 3 * batch + 1'000;

    for (const WorkloadProfile &p : profiles) {
        for (const std::uint64_t n : horizons) {
            SCOPED_TRACE(p.name + ", horizon " + std::to_string(n));
            WorkloadGenerator ref(p);
            WorkloadGenerator gen(p);
            gen.setWarmupHorizon(n);
            for (std::uint64_t i = 0; i < n; ++i) {
                ASSERT_TRUE(sameButDeps(gen.next(), ref.next()))
                    << "op " << i;
            }
            ASSERT_TRUE(snapshotOf(gen) == snapshotOf(ref));
            for (std::uint64_t i = n; i < n + tail; ++i)
                ASSERT_TRUE(same(gen.next(), ref.next())) << "op " << i;
        }
    }
}

TEST(StreamPinDeathTest, DrawingFromAZeroFootprintStillPanics)
{
    WorkloadProfile p;
    p.name = "zero-warm";
    p.warmFrac = 0.5;
    p.warmFootprint = 0;
    EXPECT_DEATH(
        {
            WorkloadGenerator gen(p);
            for (int i = 0; i < 10'000; ++i)
                gen.next();
        },
        "zero bound");
}

} // namespace
} // namespace vsv
