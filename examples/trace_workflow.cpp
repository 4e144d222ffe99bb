/**
 * @file
 * Offline trace workflow: capture the timed L1D access stream of a
 * simulated benchmark into a binary trace file, then reload it and
 * rebuild the interval population from the file alone — the path a
 * user with externally captured traces (e.g. from a real simulator)
 * would take to run the limit study on their own workloads.
 *
 * Usage: trace_workflow [--benchmark gzip] [--instructions 500000]
 *                       [--trace /tmp/leakbound_demo.trace]
 */

#include <cstdio>

#include "core/experiment.hpp"
#include "core/policies.hpp"
#include "core/savings.hpp"
#include "interval/collector.hpp"
#include "sim/cache.hpp"
#include "trace/trace_io.hpp"
#include "util/cli.hpp"
#include "util/string_utils.hpp"
#include "workload/spec_suite.hpp"

namespace {

using namespace leakbound;

/** Listener that tees every data access into a trace file. */
class TraceCapture
{
  public:
    explicit TraceCapture(trace::TraceWriter *writer) : writer_(writer) {}

    void on_instr(Cycle, Pc, const sim::HierarchyResult &) {}

    void
    on_data(Cycle cycle, Pc pc, Addr addr, bool is_store,
            const sim::HierarchyResult &)
    {
        trace::TimedAccess rec;
        rec.cycle = cycle;
        rec.pc = pc;
        rec.addr = addr;
        rec.kind = is_store ? trace::InstrKind::Store
                            : trace::InstrKind::Load;
        writer_->write(rec);
    }

  private:
    trace::TraceWriter *writer_;
};

} // namespace

int
main(int argc, char **argv)
{
    util::Cli cli("trace_workflow", "capture and replay a timed trace");
    cli.add_flag("benchmark", "suite benchmark", "gzip");
    cli.add_flag("instructions", "dynamic instructions", "500000");
    cli.add_flag("trace", "trace file path", "/tmp/leakbound_demo.trace");
    cli.parse(argc, argv);
    const std::string path = cli.get("trace");

    // Phase 1: simulate and capture the D-side access stream.
    Cycle end_cycle = 0;
    {
        trace::TraceWriter writer(path);
        if (!writer.ok())
            util::fatal(writer.status().to_string());
        TraceCapture capture(&writer);
        sim::Hierarchy hierarchy{sim::HierarchyConfig{}};
        workload::WorkloadPtr bench =
            workload::make_benchmark(cli.get("benchmark"));
        cpu::InOrderCore core(cpu::CoreConfig{}, &hierarchy, bench.get());
        const auto stats =
            core.run_with(cli.get_u64("instructions"), capture);
        end_cycle = stats.cycles;
        if (util::Status st = writer.flush(); !st.ok())
            util::fatal(st.to_string());
        std::printf("captured %llu data accesses over %llu cycles "
                    "into %s\n",
                    static_cast<unsigned long long>(writer.count()),
                    static_cast<unsigned long long>(end_cycle),
                    path.c_str());
    }

    // Phase 2: offline analysis from the file alone — replay the trace
    // through a fresh cache model and interval collector.
    const core::EnergyModel model(
        power::node_params(power::TechNode::Nm70));
    auto set = interval::IntervalHistogramSet::with_default_edges(
        core::standard_extra_edges());
    sim::Cache cache(sim::CacheConfig::alpha_l1d());
    interval::IntervalCollector collector(cache.num_frames(), &set);

    trace::TraceReader reader(path);
    if (!reader.ok())
        util::fatal(reader.status().to_string());
    trace::TimedAccess rec;
    while (reader.next(rec)) {
        const sim::AccessResult r = cache.access(rec.addr);
        collector.on_access(r.frame, rec.cycle, r.hit,
                            /*stride_predicted=*/false,
                            /*nl_covered=*/false);
    }
    collector.finalize(end_cycle);

    std::printf("replayed %llu records: %llu intervals, miss rate "
                "%.2f%%\n",
                static_cast<unsigned long long>(reader.count()),
                static_cast<unsigned long long>(set.total_intervals()),
                cache.stats().miss_rate() * 100.0);

    for (const auto &policy :
         {core::make_opt_drowsy(model), core::make_opt_hybrid(model)}) {
        const auto r = core::evaluate_policy(*policy, set);
        std::printf("  %-12s saves %s of the all-active leakage\n",
                    r.policy.c_str(),
                    util::format_percent(r.savings).c_str());
    }
    std::remove(path.c_str());
    return 0;
}
