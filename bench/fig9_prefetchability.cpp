/**
 * @file
 * Reproduces paper Figure 9: prefetchability of cache access intervals
 * by length bucket — (0,6], (6,1057], (1057,inf) at 70nm — split into
 * next-line-coverable, stride-coverable and non-prefetchable, for both
 * L1 caches (suite aggregate).
 *
 * Paper reference: I-cache next-line prefetchability 23%;
 * D-cache next-line 16.3% + stride 5.1% = 21.4% of all intervals.
 * Those totals are printed as one line per cache and reach the
 * --json report as the table `fig9_totals`.
 */

#include "bench_common.hpp"
#include "core/inflection.hpp"
#include "prefetch/prefetchability.hpp"

int
main(int argc, char **argv)
{
    using namespace leakbound;
    using namespace leakbound::bench;

    auto cli = make_cli("fig9_prefetchability",
                        "Figure 9: interval prefetchability");
    cli.parse(argc, argv);

    const auto runs = run_standard_suite(cli);
    const auto points = core::compute_inflection(
        power::node_params(power::TechNode::Nm70));

    util::Table totals("Figure 9 total prefetchability (share of all "
                       "intervals)");
    totals.set_header({"cache", "next-line", "stride", "total"});

    for (CacheSide side : {CacheSide::Instruction, CacheSide::Data}) {
        const bool icache = side == CacheSide::Instruction;

        // Aggregate bucket counts across the suite.
        prefetch::PrefetchabilityReport total;
        std::uint64_t all = 0, nl = 0, stride = 0;
        auto fold = [](prefetch::BucketBreakdown &into,
                       const prefetch::BucketBreakdown &from) {
            into.next_line += from.next_line;
            into.stride += from.stride;
            into.non_prefetchable += from.non_prefetchable;
        };
        for (const auto &run : runs) {
            const auto r = prefetch::analyze_prefetchability(
                population(run, side), points);
            fold(total.short_bucket, r.short_bucket);
            fold(total.drowsy_bucket, r.drowsy_bucket);
            fold(total.sleep_bucket, r.sleep_bucket);
        }
        all = total.short_bucket.total() + total.drowsy_bucket.total() +
              total.sleep_bucket.total();
        nl = total.drowsy_bucket.next_line + total.sleep_bucket.next_line;
        stride =
            total.drowsy_bucket.stride + total.sleep_bucket.stride;

        util::Table table(
            icache ? "Figure 9(a) Instruction Cache: prefetchability by "
                     "interval length"
                   : "Figure 9(b) Data Cache: prefetchability by "
                     "interval length");
        table.set_header({"bucket", "intervals", "P-NL", "P-stride",
                          "NP", "share of all"});
        auto emit = [&](const char *name,
                        const prefetch::BucketBreakdown &b) {
            table.add_row(
                {name, util::format_commas(b.total()),
                 util::format_commas(b.next_line),
                 util::format_commas(b.stride),
                 util::format_commas(b.non_prefetchable),
                 util::format_percent(
                     all ? static_cast<double>(b.total()) /
                               static_cast<double>(all)
                         : 0.0)});
        };
        emit("(0, 6]   (always active)", total.short_bucket);
        emit("(6, 1057] (drowsy range)", total.drowsy_bucket);
        emit("(1057, inf) (sleep range)", total.sleep_bucket);
        // Qualified: the row-building lambda above shadows bench::emit.
        bench::emit(table, cli,
                    icache ? "fig9a_icache" : "fig9b_dcache");

        const double nl_frac =
            all ? static_cast<double>(nl) / static_cast<double>(all) : 0;
        const double st_frac =
            all ? static_cast<double>(stride) / static_cast<double>(all)
                : 0;
        const std::vector<std::string> row = {
            icache ? "instruction" : "data", util::format_percent(nl_frac),
            util::format_percent(st_frac),
            util::format_percent(nl_frac + st_frac)};
        totals.add_row(row);
        std::printf("total prefetchability: next-line %s + stride %s = "
                    "%s of all intervals\n",
                    row[1].c_str(), row[2].c_str(), row[3].c_str());
        std::printf("paper: %s\n\n",
                    icache ? "next-line 23% (I-cache total 23%)"
                           : "next-line 16.3% + stride 5.1% = 21.4%");
    }
    bench::mirror(totals, cli, "fig9_totals");
    return bench::finish(cli);
}
