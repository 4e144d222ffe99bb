/**
 * @file
 * Unit tests for the util module: accumulators, histograms, the flat
 * map, RNG determinism, string formatting, tables and CLI.
 */

#include <gtest/gtest.h>

#include "util/flat_map.hpp"
#include "util/histogram.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace lb = leakbound;
using namespace lb::util;

// ---------------------------------------------------------------- stats

TEST(Accumulator, EmptyDefaults)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.sum(), 0.0);
    EXPECT_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.variance(), 0.0);
}

TEST(Accumulator, MeanMinMax)
{
    Accumulator a;
    for (double x : {3.0, 1.0, 4.0, 1.0, 5.0})
        a.add(x);
    EXPECT_EQ(a.count(), 5u);
    EXPECT_DOUBLE_EQ(a.sum(), 14.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.8);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(Accumulator, VarianceMatchesDirectFormula)
{
    Accumulator a;
    const double xs[] = {2, 4, 4, 4, 5, 5, 7, 9};
    for (double x : xs)
        a.add(x);
    // Known population variance of this classic data set is 4.
    EXPECT_NEAR(a.variance(), 4.0, 1e-12);
    EXPECT_NEAR(a.stddev(), 2.0, 1e-12);
}

TEST(Accumulator, MergeEqualsSequential)
{
    Accumulator left, right, all;
    for (int i = 0; i < 100; ++i) {
        const double x = i * 0.37;
        (i % 2 ? left : right).add(x);
        all.add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
}

// ------------------------------------------------------------ histogram

TEST(Histogram, BinIndexAndEdges)
{
    Histogram h({0, 10, 100});
    EXPECT_EQ(h.num_bins(), 3u);
    EXPECT_EQ(h.bin_index(0), 0u);
    EXPECT_EQ(h.bin_index(9), 0u);
    EXPECT_EQ(h.bin_index(10), 1u);
    EXPECT_EQ(h.bin_index(99), 1u);
    EXPECT_EQ(h.bin_index(100), 2u);
    EXPECT_EQ(h.bin_index(~0ULL), 2u);
    EXPECT_EQ(h.lower_edge(1), 10u);
    EXPECT_EQ(h.upper_edge(1), 100u);
    EXPECT_EQ(h.upper_edge(2), ~0ULL);
}

TEST(Histogram, CountsAndSums)
{
    Histogram h({0, 10, 100});
    h.add(3);
    h.add(7);
    h.add_many(50, 4);
    h.add(1000);
    EXPECT_EQ(h.bin(0).count, 2u);
    EXPECT_EQ(h.bin(0).sum, 10u);
    EXPECT_EQ(h.bin(1).count, 4u);
    EXPECT_EQ(h.bin(1).sum, 200u);
    EXPECT_EQ(h.bin(2).count, 1u);
    EXPECT_EQ(h.total_count(), 7u);
    EXPECT_EQ(h.total_sum(), 1210u);
}

TEST(Histogram, MergePreservesTotals)
{
    Histogram a({0, 5});
    Histogram b({0, 5});
    a.add(1);
    b.add(7);
    b.add(2);
    a.merge(b);
    EXPECT_EQ(a.total_count(), 3u);
    EXPECT_EQ(a.total_sum(), 10u);
}

TEST(Histogram, Log2EdgesCoverRange)
{
    const auto edges = Histogram::log2_edges(1000);
    EXPECT_EQ(edges.front(), 0u);
    EXPECT_EQ(edges.back(), 1000u);
    for (std::size_t i = 1; i < edges.size(); ++i)
        EXPECT_LT(edges[i - 1], edges[i]);
}

// ------------------------------------------------------------- flat map

TEST(FlatMap, PutGetOverwrite)
{
    FlatMap m(16);
    std::uint64_t v = 0;
    EXPECT_FALSE(m.get(42, v));
    m.put(42, 7);
    EXPECT_TRUE(m.get(42, v));
    EXPECT_EQ(v, 7u);
    m.put(42, 9);
    EXPECT_TRUE(m.get(42, v));
    EXPECT_EQ(v, 9u);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, GrowthKeepsAllKeys)
{
    FlatMap m(16);
    for (std::uint64_t k = 0; k < 10'000; ++k)
        m.put(k * 2654435761ULL, k);
    EXPECT_EQ(m.size(), 10'000u);
    for (std::uint64_t k = 0; k < 10'000; ++k) {
        std::uint64_t v = ~0ULL;
        ASSERT_TRUE(m.get(k * 2654435761ULL, v));
        EXPECT_EQ(v, k);
    }
}

TEST(FlatMap, GetOrAndClear)
{
    FlatMap m;
    EXPECT_EQ(m.get_or(5, 123), 123u);
    m.put(5, 6);
    EXPECT_EQ(m.get_or(5, 123), 6u);
    m.clear();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_FALSE(m.contains(5));
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicBySeed)
{
    Rng a(123), b(123), c(124);
    bool all_equal = true;
    bool any_diff = false;
    for (int i = 0; i < 100; ++i) {
        const auto x = a.next_u64();
        all_equal &= (x == b.next_u64());
        any_diff |= (x != c.next_u64());
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff);
}

TEST(Rng, BoundsRespected)
{
    Rng r(7);
    for (int i = 0; i < 10'000; ++i) {
        EXPECT_LT(r.next_below(17), 17u);
        const auto v = r.next_in(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        const double d = r.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, NextInTakesTheFullRange)
{
    // [0, 2^64 - 1] is one raw draw; every other range, the full range
    // less one value included, draws exactly as next_below.
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    Rng r(11), twin(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(r.next_in(0, kMax), twin.next_u64());
        EXPECT_EQ(r.next_in(1, kMax), 1 + twin.next_below(kMax));
        EXPECT_EQ(r.next_in(0, kMax - 1), twin.next_below(kMax));
        EXPECT_EQ(r.next_in(5, 9), 5 + twin.next_below(5));
    }
    EXPECT_EQ(r.next_u64(), twin.next_u64()); // same draws consumed
}

TEST(Rng, UniformityRough)
{
    Rng r(99);
    int buckets[10] = {};
    const int n = 100'000;
    for (int i = 0; i < n; ++i)
        ++buckets[r.next_below(10)];
    for (int b : buckets) {
        EXPECT_GT(b, n / 10 - n / 50);
        EXPECT_LT(b, n / 10 + n / 50);
    }
}

// --------------------------------------------------------------- string

TEST(StringUtils, Percent)
{
    EXPECT_EQ(format_percent(0.964), "96.4%");
    EXPECT_EQ(format_percent(1.0, 0), "100%");
    EXPECT_EQ(format_percent(0.03617, 2), "3.62%");
}

TEST(StringUtils, Commas)
{
    EXPECT_EQ(format_commas(0), "0");
    EXPECT_EQ(format_commas(999), "999");
    EXPECT_EQ(format_commas(1000), "1,000");
    EXPECT_EQ(format_commas(103084), "103,084");
    EXPECT_EQ(format_commas(1234567890), "1,234,567,890");
}

TEST(StringUtils, SplitTrim)
{
    const auto fields = split("a,b,,c", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[2], "");
    EXPECT_EQ(trim("  hi \n"), "hi");
    EXPECT_TRUE(starts_with("leakbound", "leak"));
    EXPECT_FALSE(starts_with("leak", "leakbound"));
    EXPECT_EQ(to_lower("AbC"), "abc");
}

// ---------------------------------------------------------------- table

TEST(Table, RendersAlignedColumns)
{
    Table t("demo");
    t.set_header({"name", "value"});
    t.add_row({"alpha", "1"});
    t.add_separator();
    t.add_row({"b", "22222"});
    const std::string out = t.render();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22222"), std::string::npos);
    EXPECT_EQ(t.num_rows(), 3u);
}

// ------------------------------------------------------------------ cli

TEST(Cli, DefaultsAndParsing)
{
    Cli cli("prog", "test");
    cli.add_flag("count", "a number", "42");
    cli.add_flag("name", "a string", "abc");
    cli.add_flag("flag", "a bool", "false");

    const char *argv[] = {"prog", "--count=7", "--flag", "--name", "xyz"};
    cli.parse(5, const_cast<char **>(argv));
    EXPECT_EQ(cli.get_u64("count"), 7u);
    EXPECT_EQ(cli.get("name"), "xyz");
    EXPECT_TRUE(cli.get_bool("flag"));
}

TEST(Cli, UnknownFlagIsFatal)
{
    Cli cli("prog", "test");
    const char *argv[] = {"prog", "--bogus=1"};
    EXPECT_EXIT(cli.parse(2, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(Cli, BadNumberIsFatal)
{
    Cli cli("prog", "test");
    cli.add_flag("n", "number", "1");
    const char *argv[] = {"prog", "--n=xyz"};
    cli.parse(2, const_cast<char **>(argv));
    EXPECT_EXIT((void)cli.get_u64("n"), ::testing::ExitedWithCode(2),
                "unsigned integer");
}

TEST(Cli, SnapshotReportsCurrentValues)
{
    Cli cli("prog", "test");
    cli.add_flag("jobs", "workers", "0");
    cli.add_flag("alpha", "first", "a");
    const char *argv[] = {"prog", "--jobs=4"};
    cli.parse(2, const_cast<char **>(argv));

    const auto snap = cli.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    // Sorted by name (std::map order).
    EXPECT_EQ(snap[0].first, "alpha");
    EXPECT_EQ(snap[0].second, "a");
    EXPECT_EQ(snap[1].first, "jobs");
    EXPECT_EQ(snap[1].second, "4");
}

// ----------------------------------------------------------------- json

TEST(JsonWriter, BuildsNestedDocuments)
{
    JsonWriter w;
    w.begin_object();
    w.key("name").value("suite");
    w.key("jobs").value(std::uint64_t{8});
    w.key("ok").value(true);
    w.key("ratio").value(0.5);
    w.key("rows").begin_array();
    w.value(std::vector<std::string>{"a", "b"});
    w.begin_object().key("n").null().end_object();
    w.end_array();
    w.end_object();

    EXPECT_EQ(w.str(),
              "{\n"
              "  \"name\": \"suite\",\n"
              "  \"jobs\": 8,\n"
              "  \"ok\": true,\n"
              "  \"ratio\": 0.5,\n"
              "  \"rows\": [\n"
              "    [\n"
              "      \"a\",\n"
              "      \"b\"\n"
              "    ],\n"
              "    {\n"
              "      \"n\": null\n"
              "    }\n"
              "  ]\n"
              "}");
}

TEST(JsonWriter, EscapesStrings)
{
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
    EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");

    JsonWriter w;
    w.begin_object();
    w.key("ke\"y").value("va\nl");
    w.end_object();
    EXPECT_EQ(w.str(), "{\n  \"ke\\\"y\": \"va\\nl\"\n}");
}

TEST(JsonWriter, EmptyContainersStayCompact)
{
    JsonWriter w;
    w.begin_object();
    w.key("empty_list").begin_array().end_array();
    w.key("empty_obj").begin_object().end_object();
    w.end_object();
    EXPECT_EQ(w.str(),
              "{\n  \"empty_list\": [],\n  \"empty_obj\": {}\n}");
}
