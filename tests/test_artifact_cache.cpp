/**
 * @file
 * Tests of the persistent artifact cache (core/artifact_cache.hpp):
 * serialization round-trip fuzz, fingerprint sensitivity to every
 * config field, corrupt/truncated-entry recovery, the lock protocol,
 * and cold-vs-warm run_suite byte-identity.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/artifact_cache.hpp"
#include "core/experiment.hpp"
#include "util/random.hpp"
#include "workload/spec_suite.hpp"

using namespace leakbound;
using namespace leakbound::core;

namespace {

namespace fs = std::filesystem;

/** A fresh, empty cache directory under the test temp dir. */
std::string
fresh_cache_dir(const char *name)
{
    const std::string dir = ::testing::TempDir() + name;
    fs::remove_all(dir);
    return dir;
}

ExperimentConfig
small_config()
{
    ExperimentConfig config;
    config.instructions = 50'000;
    config.extra_edges = standard_extra_edges();
    return config;
}

/** One small real run to serialize (static: simulate once per binary). */
const ExperimentResult &
sample_result()
{
    static const ExperimentResult result = [] {
        auto w = workload::make_benchmark("gzip");
        return run_experiment(*w, small_config());
    }();
    return result;
}

/** As above but with the L2 observation populated. */
const ExperimentResult &
sample_result_l2()
{
    static const ExperimentResult result = [] {
        auto w = workload::make_benchmark("ammp");
        ExperimentConfig config = small_config();
        config.collect_l2 = true;
        return run_experiment(*w, config);
    }();
    return result;
}

/** Draw a fuzzed interval covering all kinds/classes and edge lengths. */
interval::Interval
fuzz_interval(util::Rng &rng)
{
    interval::Interval iv;
    switch (rng.next_below(8)) {
      case 0: iv.length = 0; break;
      case 1: iv.length = 1; break;
      case 2: iv.length = ~static_cast<Cycles>(0) >> 1; break;
      default: iv.length = rng.next_below(1 << 22); break;
    }
    iv.kind = static_cast<interval::IntervalKind>(rng.next_below(4));
    iv.pf = static_cast<interval::PrefetchClass>(rng.next_below(3));
    iv.ends_in_reuse = rng.next_bool(0.5);
    return iv;
}

} // namespace

// ---------------------------------------------------------------------
// Serialization round-trips.
// ---------------------------------------------------------------------

TEST(ArtifactCache, HistogramSetRoundTripFuzz)
{
    // Random populations -> bytes -> set -> bytes must be a fixed
    // point: the second serialization is byte-identical to the first.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        util::Rng rng(seed * 0x9e37'79b9ULL);
        std::vector<Cycles> extras;
        for (std::size_t i = rng.next_below(6); i > 0; --i)
            extras.push_back(rng.next_below(1 << 20));
        auto set =
            interval::IntervalHistogramSet::with_default_edges(extras);
        const std::size_t n = 100 + rng.next_below(2000);
        for (std::size_t i = 0; i < n; ++i)
            set.add(fuzz_interval(rng));
        set.set_run_info(512 + rng.next_below(4096),
                         1 + rng.next_u64() % (1ULL << 40));

        util::BinaryWriter w;
        set.serialize(w);
        const std::string bytes = w.take();

        util::BinaryReader r(bytes);
        auto restored = interval::IntervalHistogramSet::deserialize(r);
        ASSERT_TRUE(restored.has_value()) << "seed " << seed;
        EXPECT_TRUE(r.at_end()) << "seed " << seed;

        util::BinaryWriter w2;
        restored->serialize(w2);
        EXPECT_EQ(bytes, w2.take()) << "seed " << seed;
        EXPECT_EQ(restored->total_intervals(), set.total_intervals());
        EXPECT_EQ(restored->total_length(), set.total_length());
        EXPECT_EQ(restored->num_frames(), set.num_frames());
        EXPECT_EQ(restored->total_cycles(), set.total_cycles());
    }
}

TEST(ArtifactCache, ResultRoundTripsExactly)
{
    for (const ExperimentResult *result :
         {&sample_result(), &sample_result_l2()}) {
        const std::string bytes = serialize_result(*result);
        auto restored = deserialize_result(bytes);
        ASSERT_TRUE(restored.has_value());
        // Byte-identity is the contract the cache depends on.
        EXPECT_EQ(serialize_result(*restored), bytes);
        EXPECT_EQ(restored->workload, result->workload);
        EXPECT_EQ(restored->core.cycles, result->core.cycles);
        EXPECT_EQ(restored->core.instructions, result->core.instructions);
        EXPECT_EQ(restored->dcache.stats.misses,
                  result->dcache.stats.misses);
        EXPECT_EQ(restored->l2cache.has_value(),
                  result->l2cache.has_value());
        EXPECT_EQ(restored->l2.accesses, result->l2.accesses);
    }
}

TEST(ArtifactCache, ReportingFieldsExcludedFromPayload)
{
    ExperimentResult copy = sample_result();
    copy.wall_seconds = 123.456;
    copy.from_cache = true;
    EXPECT_EQ(serialize_result(copy), serialize_result(sample_result()));
}

TEST(ArtifactCache, DeserializeRejectsMangledPayloads)
{
    const std::string bytes = serialize_result(sample_result());
    // Truncations at every prefix length in a coarse sweep, plus the
    // empty string, must fail cleanly (no crash, no partial result).
    EXPECT_FALSE(deserialize_result(std::string()).has_value());
    for (std::size_t len = 0; len < bytes.size();
         len += 1 + bytes.size() / 97)
        EXPECT_FALSE(deserialize_result(bytes.substr(0, len)).has_value())
            << "prefix " << len;
    // Trailing garbage is rejected too (at_end() contract).
    EXPECT_FALSE(deserialize_result(bytes + "x").has_value());
}

// ---------------------------------------------------------------------
// Fingerprint sensitivity.
// ---------------------------------------------------------------------

TEST(ArtifactCache, FingerprintIsDeterministic)
{
    const ExperimentConfig a = small_config();
    const ExperimentConfig b = small_config();
    EXPECT_EQ(fingerprint_config(a), fingerprint_config(b));
    EXPECT_EQ(fingerprint_experiment("gzip", a),
              fingerprint_experiment("gzip", b));
}

TEST(ArtifactCache, FingerprintSensitiveToEveryField)
{
    // Every mutation below changes simulation output, so each must
    // yield a distinct key — and all of them differ from the base.
    const ExperimentConfig base = small_config();
    std::vector<std::pair<const char *, ExperimentConfig>> variants;
    auto add = [&](const char *name, auto &&mutate) {
        ExperimentConfig c = small_config();
        mutate(c);
        variants.emplace_back(name, std::move(c));
    };
    add("instructions", [](auto &c) { c.instructions += 1; });
    add("l1i.size", [](auto &c) { c.hierarchy.l1i.size_bytes *= 2; });
    add("l1d.size", [](auto &c) { c.hierarchy.l1d.size_bytes *= 2; });
    add("l2.size", [](auto &c) { c.hierarchy.l2.size_bytes *= 2; });
    add("l1d.line", [](auto &c) { c.hierarchy.l1d.line_bytes *= 2; });
    add("l1d.assoc", [](auto &c) { c.hierarchy.l1d.associativity *= 2; });
    add("l1d.latency", [](auto &c) { c.hierarchy.l1d.hit_latency += 1; });
    add("l1d.repl", [](auto &c) {
        c.hierarchy.l1d.replacement = sim::ReplacementKind::Random;
    });
    add("mem.latency", [](auto &c) { c.hierarchy.memory_latency += 10; });
    add("fetch_width", [](auto &c) { c.core.fetch_width += 1; });
    add("instr_bytes", [](auto &c) { c.core.instr_bytes *= 2; });
    add("overlap", [](auto &c) { c.core.miss_overlap_percent += 5; });
    add("stride.entries", [](auto &c) { c.stride.table_entries *= 2; });
    add("stride.confirm", [](auto &c) { c.stride.confirmations += 1; });
    add("nl_lead_time", [](auto &c) { c.nl_lead_time += 100; });
    add("collect_l2", [](auto &c) { c.collect_l2 = !c.collect_l2; });
    add("extra_edges", [](auto &c) { c.extra_edges.push_back(777'777); });

    std::vector<std::pair<std::string, std::uint64_t>> keys;
    keys.emplace_back("base", fingerprint_config(base));
    for (const auto &[name, config] : variants)
        keys.emplace_back(name, fingerprint_config(config));
    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i].second, keys[j].second)
                << keys[i].first << " vs " << keys[j].first;
}

TEST(ArtifactCache, FingerprintIgnoresNonSemanticFields)
{
    // jobs, cache_dir, keep_raw and cosmetic cache names change where
    // or how results are produced, never what they contain.
    const std::uint64_t base = fingerprint_config(small_config());

    ExperimentConfig c = small_config();
    c.jobs = 7;
    EXPECT_EQ(fingerprint_config(c), base);

    c = small_config();
    c.cache_dir = "/somewhere/else";
    EXPECT_EQ(fingerprint_config(c), base);

    c = small_config();
    c.keep_raw = true;
    EXPECT_EQ(fingerprint_config(c), base);

    c = small_config();
    c.hierarchy.l1d.name = "renamed-dcache";
    EXPECT_EQ(fingerprint_config(c), base);
}

TEST(ArtifactCache, FingerprintCanonicalizesExtraEdges)
{
    // Extras are hashed through the derived sorted+deduped edge list:
    // permutations and duplicates of the same set share an entry.
    ExperimentConfig a = small_config();
    a.extra_edges = {5'000, 100, 100, 9'999};
    ExperimentConfig b = small_config();
    b.extra_edges = {9'999, 5'000, 100};
    EXPECT_EQ(fingerprint_config(a), fingerprint_config(b));
}

TEST(ArtifactCache, WorkloadNameFeedsEntryKey)
{
    const ExperimentConfig config = small_config();
    const std::uint64_t fp = fingerprint_config(config);
    EXPECT_NE(fingerprint_entry(fp, "gzip"), fingerprint_entry(fp, "gcc"));
    EXPECT_EQ(fingerprint_entry(fp, "gzip"),
              fingerprint_experiment("gzip", config));
}

// ---------------------------------------------------------------------
// Store/load and corrupt-entry recovery.
// ---------------------------------------------------------------------

TEST(ArtifactCache, StoreThenLoadIsByteIdentical)
{
    const std::string dir = fresh_cache_dir("lb_cache_roundtrip");
    ArtifactCache cache(dir);
    const std::uint64_t key = 0x1234'5678'9abc'def0ULL;
    ASSERT_TRUE(cache.store(key, sample_result()).ok());
    ASSERT_TRUE(fs::exists(cache.entry_path(key)));

    auto loaded = cache.try_load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(serialize_result(*loaded), serialize_result(sample_result()));
    // A different key misses without touching the stored entry.
    EXPECT_FALSE(cache.try_load(key + 1).has_value());
    EXPECT_TRUE(fs::exists(cache.entry_path(key)));
    fs::remove_all(dir);
}

TEST(ArtifactCache, CorruptEntriesAreDiscardedAndResimulated)
{
    const std::string dir = fresh_cache_dir("lb_cache_corrupt");
    ArtifactCache cache(dir);
    const std::uint64_t key = 42;
    ASSERT_TRUE(cache.store(key, sample_result()).ok());

    std::string bytes;
    {
        std::ifstream in(cache.entry_path(key), std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        bytes = buf.str();
    }
    ASSERT_GT(bytes.size(), 100u);

    // Flip one byte at a spread of offsets: header (magic, version,
    // key, size), payload body, and the trailing checksum.  Every
    // mutation must be detected, the entry removed, and a subsequent
    // probe must miss cleanly.
    const std::size_t offsets[] = {0,  5,  8,  11, 12, 19,
                                   20, 27, 40, bytes.size() / 2,
                                   bytes.size() - 1};
    for (const std::size_t off : offsets) {
        std::string mangled = bytes;
        mangled[off] = static_cast<char>(mangled[off] ^ 0x5a);
        {
            std::ofstream out(cache.entry_path(key), std::ios::binary);
            out << mangled;
        }
        EXPECT_FALSE(cache.try_load(key).has_value()) << "offset " << off;
        EXPECT_FALSE(fs::exists(cache.entry_path(key)))
            << "offset " << off << " entry not discarded";
    }

    // Truncations (including an empty file) are likewise rejected.
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{7}, std::size_t{20},
          bytes.size() / 3, bytes.size() - 1}) {
        {
            std::ofstream out(cache.entry_path(key), std::ios::binary);
            out << bytes.substr(0, len);
        }
        EXPECT_FALSE(cache.try_load(key).has_value()) << "length " << len;
    }

    // After a discard, load_or_run transparently re-simulates, stores
    // a good entry, and returns the correct result.
    {
        std::ofstream out(cache.entry_path(key), std::ios::binary);
        out << bytes.substr(0, bytes.size() / 2);
    }
    const ExperimentResult rerun =
        cache.load_or_run(key, "gzip", [] { return sample_result(); });
    EXPECT_FALSE(rerun.from_cache);
    EXPECT_EQ(serialize_result(rerun), serialize_result(sample_result()));
    auto reloaded = cache.try_load(key);
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_EQ(serialize_result(*reloaded),
              serialize_result(sample_result()));
    // Every rejected mutation was counted, and none of them demoted
    // the cache — corruption is recoverable, not degrading.
    EXPECT_GE(cache.health().corrupt_entries, 11u);
    EXPECT_FALSE(cache.degraded());
    fs::remove_all(dir);
}

TEST(ArtifactCache, LoadOrRunMissSimulatesHitLoads)
{
    const std::string dir = fresh_cache_dir("lb_cache_loadorrun");
    ArtifactCache cache(dir);
    const std::uint64_t key = fingerprint_experiment("gzip", small_config());

    int simulations = 0;
    auto simulate = [&simulations]() {
        ++simulations;
        return sample_result();
    };
    const ExperimentResult cold = cache.load_or_run(key, "gzip", simulate);
    EXPECT_EQ(simulations, 1);
    EXPECT_FALSE(cold.from_cache);

    const ExperimentResult warm = cache.load_or_run(key, "gzip", simulate);
    EXPECT_EQ(simulations, 1) << "hit must not simulate";
    EXPECT_TRUE(warm.from_cache);
    EXPECT_EQ(serialize_result(warm), serialize_result(cold));
    // The lock is released either way.
    EXPECT_FALSE(fs::exists(cache.entry_path(key) + ".lock"));
    fs::remove_all(dir);
}

TEST(ArtifactCache, StaleLockIsBroken)
{
    const std::string dir = fresh_cache_dir("lb_cache_stale");
    ArtifactCache::LockOptions options;
    options.wait_timeout = std::chrono::milliseconds(2'000);
    options.stale_age = std::chrono::milliseconds(0); // everything stale
    ArtifactCache cache(dir, options);
    const std::uint64_t key = 7;

    fs::create_directories(dir);
    { std::ofstream lock(cache.entry_path(key) + ".lock"); }
    const ExperimentResult result =
        cache.load_or_run(key, "gzip", [] { return sample_result(); });
    EXPECT_FALSE(result.from_cache);
    // The dead writer's lock was broken, the entry published, ours
    // released.
    EXPECT_TRUE(fs::exists(cache.entry_path(key)));
    EXPECT_FALSE(fs::exists(cache.entry_path(key) + ".lock"));
    EXPECT_GE(cache.health().lock_breaks, 1u);
    EXPECT_EQ(cache.health().lock_timeouts, 0u);
    fs::remove_all(dir);
}

TEST(ArtifactCache, LockHeldBySigkilledProcessIsBrokenAndCounted)
{
    // The crash-hygiene case: a process (a daemon, a bench binary) that
    // acquired an entry lock and was then SIGKILLed leaves its `.lock`
    // behind with no process to release it.  Survivors must break the
    // stale lock (counted — CacheHealth::lock_breaks feeds the
    // daemon's /stats `locks_broken`), simulate, publish, and release,
    // with zero degradation.
    const std::string dir = fresh_cache_dir("lb_cache_sigkill");
    fs::create_directories(dir);
    ArtifactCache::LockOptions options;
    options.wait_timeout = std::chrono::milliseconds(10'000);
    options.stale_age = std::chrono::milliseconds(100);
    ArtifactCache cache(dir, options);
    const std::uint64_t key = 11;
    const std::string lock = cache.entry_path(key) + ".lock";

    // The doomed writer takes the lock exactly as a real one would
    // (O_CREAT | O_EXCL), then parks until killed.  Only
    // async-signal-safe calls after fork().
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        const int fd =
            ::open(lock.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
        if (fd < 0)
            ::_exit(3);
        for (;;)
            ::pause();
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!fs::exists(lock) &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(fs::exists(lock)) << "lock holder never started";
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    ASSERT_EQ(::waitpid(pid, nullptr, 0), pid);

    // Age the orphaned lock past stale_age, then miss into it.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    const ExperimentResult result =
        cache.load_or_run(key, "gzip", [] { return sample_result(); });
    EXPECT_FALSE(result.from_cache);
    EXPECT_EQ(serialize_result(result),
              serialize_result(sample_result()));
    EXPECT_TRUE(fs::exists(cache.entry_path(key)))
        << "recovery must still publish the entry";
    EXPECT_FALSE(fs::exists(lock));
    EXPECT_GE(cache.health().lock_breaks, 1u);
    EXPECT_EQ(cache.health().lock_timeouts, 0u);
    EXPECT_FALSE(cache.degraded());
    fs::remove_all(dir);
}

TEST(ArtifactCache, HeldLockTimesOutWithoutStoring)
{
    const std::string dir = fresh_cache_dir("lb_cache_held");
    ArtifactCache::LockOptions options;
    options.wait_timeout = std::chrono::milliseconds(50);
    options.stale_age = std::chrono::hours(1); // never stale
    ArtifactCache cache(dir, options);
    const std::uint64_t key = 9;

    fs::create_directories(dir);
    { std::ofstream lock(cache.entry_path(key) + ".lock"); }
    const ExperimentResult result =
        cache.load_or_run(key, "gzip", [] { return sample_result(); });
    // Correct result anyway, but nothing published and the foreign
    // lock left alone.
    EXPECT_FALSE(result.from_cache);
    EXPECT_EQ(serialize_result(result), serialize_result(sample_result()));
    EXPECT_FALSE(fs::exists(cache.entry_path(key)));
    EXPECT_TRUE(fs::exists(cache.entry_path(key) + ".lock"));
    // The wait was counted (with its retries) but did not demote the
    // cache: lock contention is per-entry, not a dead backing store.
    EXPECT_EQ(cache.health().lock_timeouts, 1u);
    EXPECT_GE(cache.health().lock_retries, 1u);
    EXPECT_FALSE(cache.degraded());
    fs::remove_all(dir);
}

TEST(ArtifactCache, UnwritableDirectoryDegradesToSimulation)
{
    // Point the cache at a path that can never become a directory (a
    // regular file occupies it).  The first load_or_run demotes the
    // cache with a warning and every job simulates without caching —
    // results stay correct, no exception escapes.
    const std::string blocker =
        ::testing::TempDir() + "lb_cache_blocker_file";
    fs::remove_all(blocker);
    { std::ofstream out(blocker); out << "not a directory"; }

    ArtifactCache cache(blocker + "/nested");
    int simulations = 0;
    for (int i = 0; i < 3; ++i) {
        const ExperimentResult r =
            cache.load_or_run(7 + i, "gzip", [&simulations] {
                ++simulations;
                return sample_result();
            });
        EXPECT_FALSE(r.from_cache);
        EXPECT_EQ(serialize_result(r), serialize_result(sample_result()));
    }
    EXPECT_EQ(simulations, 3);
    EXPECT_TRUE(cache.degraded());
    EXPECT_EQ(cache.health().degraded_jobs, 3u)
        << "the demoting job and both after it ran uncached";
    fs::remove_all(blocker);
}

// ---------------------------------------------------------------------
// run_suite integration: cold vs warm byte-identity.
// ---------------------------------------------------------------------

TEST(ArtifactCache, WarmSuiteIsByteIdenticalToCold)
{
    const std::string dir = fresh_cache_dir("lb_cache_suite");
    const std::vector<std::string> names = {"gzip", "ammp"};

    ExperimentConfig uncached = small_config();
    const auto reference = run_suite(names, uncached);

    ExperimentConfig cached = small_config();
    cached.cache_dir = dir;
    const auto cold = run_suite(names, cached);
    const auto warm = run_suite(names, cached);

    // Warm results load; and every variant — uncached, cold, warm —
    // serializes to exactly the same bytes per benchmark.
    ASSERT_EQ(cold.size(), names.size());
    ASSERT_EQ(warm.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_FALSE(cold[i].from_cache) << names[i];
        EXPECT_TRUE(warm[i].from_cache) << names[i];
        const std::string want = serialize_result(reference[i]);
        EXPECT_EQ(serialize_result(cold[i]), want) << names[i];
        EXPECT_EQ(serialize_result(warm[i]), want) << names[i];
    }

    // The parallel path loads the same bytes too.
    ExperimentConfig parallel = cached;
    parallel.jobs = 2;
    const auto warm_parallel = run_suite(names, parallel);
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_TRUE(warm_parallel[i].from_cache) << names[i];
        EXPECT_EQ(serialize_result(warm_parallel[i]),
                  serialize_result(reference[i]))
            << names[i];
    }
    fs::remove_all(dir);
}

TEST(ArtifactCache, KeepRawRunsBypassTheCache)
{
    const std::string dir = fresh_cache_dir("lb_cache_keepraw");
    ExperimentConfig config = small_config();
    config.cache_dir = dir;
    config.keep_raw = true;
    const auto first = run_suite({"gzip"}, config);
    const auto second = run_suite({"gzip"}, config);
    // Raw intervals are never persisted: both runs simulate, both keep
    // their raw vectors, and no cache directory ever appears.
    EXPECT_FALSE(first[0].from_cache);
    EXPECT_FALSE(second[0].from_cache);
    EXPECT_FALSE(first[0].dcache.raw.empty());
    EXPECT_FALSE(second[0].dcache.raw.empty());
    EXPECT_FALSE(fs::exists(dir));
}

TEST(ArtifactCache, ResolveCacheDirPrecedence)
{
    ::unsetenv("LEAKBOUND_CACHE_DIR");
    EXPECT_EQ(resolve_cache_dir(""), "");
    EXPECT_EQ(resolve_cache_dir("/flag/dir"), "/flag/dir");
    ::setenv("LEAKBOUND_CACHE_DIR", "/env/dir", 1);
    EXPECT_EQ(resolve_cache_dir(""), "/env/dir");
    EXPECT_EQ(resolve_cache_dir("/flag/dir"), "/flag/dir");
    ::unsetenv("LEAKBOUND_CACHE_DIR");
}
