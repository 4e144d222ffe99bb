/**
 * @file
 * Implementation of the multicore shared-L2 engine: the per-core
 * listener, the duplicate-tag invalidation directory, and the bounded
 * (cycle, core_id) interleaver.
 */

#include "multicore/multicore.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <memory>
#include <utility>

#include "core/batched_observer.hpp"
#include "interval/collector.hpp"
#include "prefetch/stride.hpp"
#include "sim/hierarchy.hpp"
#include "util/fault_injection.hpp"
#include "util/logging.hpp"
#include "util/status.hpp"
#include "workload/spec_suite.hpp"

namespace leakbound::multicore {

namespace {

/** Seed of the shared L2 (the historical single-core L2 seed). */
constexpr std::uint64_t kSharedL2Seed = 17;

/**
 * L2 banks the interval collection is sharded over.  Power of two,
 * capped by the set count; set index bits select the bank (the usual
 * low-order interleaving).  Purely an observation-side partition: the
 * cache itself is one instance, and the merged histogram is
 * byte-identical to a single collector over the whole frame space.
 */
std::uint64_t
l2_bank_count(const sim::CacheConfig &config)
{
    return std::min<std::uint64_t>(8, config.num_sets());
}

void
add_cache_stats(sim::CacheStats &into, const sim::CacheStats &from)
{
    into.accesses += from.accesses;
    into.hits += from.hits;
    into.misses += from.misses;
    into.evictions += from.evictions;
}

class Engine;

/**
 * Per-core access listener: logs the access for the core's own
 * collectors through the BatchedObserver the single-core kernel lane
 * uses, then routes it to the engine for the shared-L2 log and the
 * invalidation directory.  Concrete and non-virtual:
 * InOrderCore::run_until inlines it into the run loop.
 */
class NodeListener
{
  public:
    NodeListener(Engine *engine, std::uint32_t core_id,
                 const sim::HierarchyConfig &config,
                 interval::IntervalCollector *icollector,
                 interval::IntervalCollector *dcollector,
                 prefetch::StridePredictor *stride, Cycles nl_lead_time)
        : engine_(engine), core_id_(core_id),
          observer_(config, icollector, dcollector, stride, nl_lead_time)
    {
        // The observer never sees the L2: the shared L2's population
        // is owned by the engine's per-bank collectors (a per-core
        // collector could not see other cores' touches).
    }

    void on_instr(Cycle cycle, Pc pc, const sim::HierarchyResult &result);
    void on_data(Cycle cycle, Pc pc, Addr addr, bool is_store,
                 const sim::HierarchyResult &result);
    void on_group_end() {}

    /** This core's observer (remote invalidations are logged here). */
    core::BatchedObserver &observer() { return observer_; }

  private:
    Engine *engine_;
    std::uint32_t core_id_;
    core::BatchedObserver observer_;
};

/** The interleaver, the directory, and all per-core machinery. */
class Engine
{
  public:
    Engine(std::vector<std::string> names, std::string label,
           const core::ExperimentConfig &config)
        : label_(std::move(label)),
          l2_(config.hierarchy.l2, kSharedL2Seed),
          l1d_line_shift_(config.hierarchy.l1d.line_shift()),
          l1d_set_mask_(config.hierarchy.l1d.set_mask()),
          l1d_ways_(config.hierarchy.l1d.associativity),
          dir_row_(names.size() * config.hierarchy.l1d.associativity),
          dir_(config.hierarchy.l1d.num_sets() * dir_row_, kInvalidAddr),
          l2_line_shift_(config.hierarchy.l2.line_shift()),
          l2_ways_(config.hierarchy.l2.associativity),
          banks_(l2_bank_count(config.hierarchy.l2)),
          bank_mask_(banks_ - 1),
          bank_shift_(static_cast<std::uint32_t>(
              std::countr_zero(banks_)))
    {
        const auto edges = interval::IntervalHistogramSet::default_edges(
            config.extra_edges);

        if (config.collect_l2) {
            const std::uint64_t frames_per_bank =
                config.hierarchy.l2.num_frames() / banks_;
            bank_sinks_.reserve(banks_);
            bank_collectors_.reserve(banks_);
            for (std::uint64_t b = 0; b < banks_; ++b) {
                bank_sinks_.emplace_back(edges);
                bank_collectors_.push_back(
                    std::make_unique<interval::IntervalCollector>(
                        frames_per_bank, &bank_sinks_.back()));
            }
        }

        nodes_.reserve(names.size());
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(names.size()); ++i) {
            auto node = std::make_unique<Node>();
            node->id = i;
            node->workload_name = names[i];
            node->isink.emplace(edges);
            node->dsink.emplace(edges);
            node->hierarchy = std::make_unique<sim::Hierarchy>(
                config.hierarchy, &l2_, i);
            node->icollector =
                std::make_unique<interval::IntervalCollector>(
                    node->hierarchy->l1i().num_frames(), &*node->isink);
            node->dcollector =
                std::make_unique<interval::IntervalCollector>(
                    node->hierarchy->l1d().num_frames(), &*node->dsink);
            node->stride =
                std::make_unique<prefetch::StridePredictor>(config.stride);
            node->listener = std::make_unique<NodeListener>(
                this, i, config.hierarchy, node->icollector.get(),
                node->dcollector.get(), node->stride.get(),
                config.nl_lead_time);
            node->workload = workload::make_benchmark(names[i]);
            node->core = std::make_unique<cpu::InOrderCore>(
                config.core, node->hierarchy.get(), node->workload.get());
            node->remaining = config.instructions;
            node->running = node->remaining != 0;
            nodes_.push_back(std::move(node));
        }
    }

    MulticoreResult run();

    /**
     * Shared-L2 observation hook: every L1 miss of every core touched
     * the L2, closing the touched frame's open interval in its bank.
     */
    void
    on_l2(Cycle cycle, const sim::HierarchyResult &result)
    {
        if (bank_collectors_.empty() || result.l1.hit)
            return; // the L2 is only touched on L1 misses
        log_l2(result.l2.frame, cycle, result.l2.hit);
    }

    /**
     * Invalidation directory: mirror an L1D fill into the duplicate
     * tags, and on a store kill every other core's copy — closing their
     * open L1D intervals, and the shared line's L2 interval when the
     * store itself never reached the L2.
     */
    void
    on_data(std::uint32_t core_id, Cycle cycle, Addr addr, bool is_store,
            const sim::AccessResult &l1)
    {
        const Addr block = addr >> l1d_line_shift_;
        const std::uint64_t set = block & l1d_set_mask_;
        Addr *row = dir_.data() + set * dir_row_;

        // A fill overwrites its frame's mirrored tag; the victim leaves
        // silently, since its slot now names the new block.
        if (!l1.hit)
            row[core_id * l1d_ways_ + (l1.frame - set * l1d_ways_)] = block;
        if (!is_store)
            return;

        // The row holds every core's tags for this set in core-id order,
        // so remote copies are killed in core-id order.  The writer's
        // own slot also names the block (it just hit or filled).
        bool shared = false;
        for (std::uint64_t slot = 0; slot < dir_row_; ++slot) {
            if (row[slot] != block)
                continue;
            const auto j = static_cast<std::uint32_t>(slot / l1d_ways_);
            if (j == core_id)
                continue;
            shared = true;
            row[slot] = kInvalidAddr;
            const FrameId frame =
                nodes_[j]->hierarchy->l1d().invalidate_block(block);
            LEAKBOUND_ASSERT(frame == set * l1d_ways_ + slot % l1d_ways_,
                             "directory named a non-resident sharer");
            // The kill closes the victim frame's open interval — the
            // line must leave low-leakage state to be snooped/dropped —
            // with no reuse (the resident block is destroyed, not
            // served) and no prefetch class.  The victim is not
            // running, so the record joins its D-log behind its own
            // accesses: the log order is the global (cycle, core_id)
            // event order.
            nodes_[j]->listener->observer().on_invalidation(cycle, frame);
            ++nodes_[j]->invalidations_received;
            ++invalidations_;
        }
        if (!shared)
            return; // exclusive already; no coherence traffic
        ++invalidating_stores_;

        // A store that *missed* its L1D already touched the L2 through
        // the access itself (on_l2 above); only an L1-hit store reaches
        // the shared line purely through the coherence fabric.  The L2
        // may no longer hold the line (no back-invalidation, so the
        // hierarchy is not inclusive) — then there is no interval to
        // close.
        if (l1.hit && !bank_collectors_.empty()) {
            const Addr l2block =
                (block << l1d_line_shift_) >> l2_line_shift_;
            const FrameId frame = l2_.frame_of_block(l2block);
            if (frame != kInvalidFrame) {
                // The line stays resident in the L2 (the directory
                // kill is about L1 copies), so this close is a reuse.
                log_l2(frame, cycle, /*reuse=*/true);
                ++l2_interval_closes_;
            }
        }
    }

  private:
    struct Node
    {
        std::uint32_t id = 0;
        std::string workload_name;
        std::optional<interval::IntervalHistogramSet> isink;
        std::optional<interval::IntervalHistogramSet> dsink;
        std::unique_ptr<sim::Hierarchy> hierarchy;
        std::unique_ptr<interval::IntervalCollector> icollector;
        std::unique_ptr<interval::IntervalCollector> dcollector;
        std::unique_ptr<prefetch::StridePredictor> stride;
        std::unique_ptr<NodeListener> listener;
        workload::WorkloadPtr workload;
        std::unique_ptr<cpu::InOrderCore> core;
        std::uint64_t remaining = 0;
        bool running = false;
        cpu::CoreRunStats stats; ///< accumulated deltas; cycles at end
        std::uint64_t invalidations_received = 0;
    };

    /**
     * Directory exactness, checked once per run at O(cores x L1D
     * frames): every mirrored tag must name the block its frame holds
     * (kInvalidAddr for an empty frame).  A mismatch means a coherence
     * event was lost, so the run's populations cannot be trusted.
     */
    void
    check_directory()
    {
        if (util::fault::should_fail(util::fault::Site::Directory, label_))
            dir_.front() ^= 1; // flip one mirrored tag
        for (const auto &node : nodes_) {
            const sim::Cache &l1d = node->hierarchy->l1d();
            for (FrameId frame = 0; frame < l1d.num_frames(); ++frame) {
                const std::uint64_t set = frame / l1d_ways_;
                const Addr mirrored = dir_[set * dir_row_ +
                                           node->id * l1d_ways_ +
                                           frame % l1d_ways_];
                if (mirrored != l1d.block_in_frame(frame)) {
                    throw util::StatusError(util::Status(
                        util::ErrorKind::Internal,
                        "invalidation directory diverged from core " +
                            std::to_string(node->id) + "'s L1D at frame " +
                            std::to_string(frame) + " in " + label_));
                }
            }
        }
    }

    /** One shared-L2 frame event, waiting for its bank's collector. */
    struct L2Record
    {
        Cycle cycle;
        FrameId frame;
        bool reuse;
    };

    /**
     * Log a shared-L2 frame event.  Every core appends here in the
     * global (cycle, core_id) order, so the banks see the events in
     * the order the interleaver produced them.
     */
    void
    log_l2(FrameId frame, Cycle cycle, bool reuse)
    {
        l2_log_[l2_len_] = {cycle, frame, reuse};
        if (++l2_len_ == core::BatchedObserver::kBatch)
            flush_l2();
    }

    /** Route every logged L2 event into its bank's collector. */
    void
    flush_l2()
    {
        for (std::size_t i = 0; i < l2_len_; ++i) {
            const L2Record &r = l2_log_[i];
            const std::uint64_t set = r.frame / l2_ways_;
            const std::uint64_t way = r.frame % l2_ways_;
            const std::uint64_t bank = set & bank_mask_;
            const FrameId local = static_cast<FrameId>(
                (set >> bank_shift_) * l2_ways_ + way);
            bank_collectors_[bank]->on_access(local, r.cycle, r.reuse,
                                              /*stride_predicted=*/false,
                                              /*nl_covered=*/false);
        }
        l2_len_ = 0;
    }

    std::string label_; ///< the mix label (fault-injection tag, errors)
    sim::Cache l2_;
    std::uint32_t l1d_line_shift_;
    std::uint64_t l1d_set_mask_;
    std::uint32_t l1d_ways_;
    std::uint64_t dir_row_; ///< directory slots per L1D set (cores x ways)
    /**
     * The duplicate-tag directory: a copy of every core's L1D tags,
     * slot (set x cores + core) x ways + way, kInvalidAddr for an empty
     * frame.  One set's row is contiguous across cores, so a store
     * scans a few host cache lines; load hits never touch it.  Written
     * on fills and invalidations only; check_directory() proves it
     * exact at end of run.
     */
    std::vector<Addr> dir_;
    std::uint32_t l2_line_shift_;
    std::uint64_t l2_ways_;
    std::uint64_t banks_;
    std::uint64_t bank_mask_;
    std::uint32_t bank_shift_;
    std::vector<interval::IntervalHistogramSet> bank_sinks_;
    std::vector<std::unique_ptr<interval::IntervalCollector>>
        bank_collectors_;
    std::array<L2Record, core::BatchedObserver::kBatch> l2_log_;
    std::size_t l2_len_ = 0;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::uint64_t invalidations_ = 0;
    std::uint64_t invalidating_stores_ = 0;
    std::uint64_t l2_interval_closes_ = 0;
};

inline void
NodeListener::on_instr(Cycle cycle, Pc pc, const sim::HierarchyResult &result)
{
    observer_.on_instr(cycle, pc, result);
    engine_->on_l2(cycle, result);
}

inline void
NodeListener::on_data(Cycle cycle, Pc pc, Addr addr, bool is_store,
                      const sim::HierarchyResult &result)
{
    observer_.on_data(cycle, pc, addr, is_store, result);
    engine_->on_l2(cycle, result);
    engine_->on_data(core_id_, cycle, addr, is_store, result.l1);
}

MulticoreResult
Engine::run()
{
    for (;;) {
        // Run the core with the minimum (cycle, core_id) until it stops
        // being the minimum: the strict < over an in-order scan breaks
        // cycle ties toward the lower id, and the runner-up's own cycle
        // cannot move while another core runs.  So the minimum core
        // keeps the turn while cycle < runner_cycle, or on a tie when it
        // has the lower id — exactly cycle < runner_cycle + (id <
        // runner_id) — and the resulting event order is the one a
        // one-group-per-step scan produces.  Because the minimum only
        // ever increases, every event — including cross-core
        // invalidations landing in other cores' collectors — carries a
        // globally non-decreasing cycle stamp, which is what the
        // collectors' time-ordering invariant requires.
        Node *next = nullptr;
        Node *runner = nullptr;
        for (auto &node : nodes_) {
            if (!node->running)
                continue;
            if (!next || node->core->cycle() < next->core->cycle()) {
                runner = next;
                next = node.get();
            } else if (!runner ||
                       node->core->cycle() < runner->core->cycle()) {
                runner = node.get();
            }
        }
        if (!next)
            break;

        const Cycle limit =
            runner ? runner->core->cycle() + (next->id < runner->id ? 1 : 0)
                   : cpu::InOrderCore::kNoCycleLimit;
        const cpu::CoreRunStats delta =
            next->core->run_until(next->remaining, limit, *next->listener);
        if (delta.instructions == 0) {
            next->running = false; // finite workload exhausted
            continue;
        }
        next->stats.instructions += delta.instructions;
        next->stats.fetch_groups += delta.fetch_groups;
        next->stats.loads += delta.loads;
        next->stats.stores += delta.stores;
        next->stats.instr_stall_cycles += delta.instr_stall_cycles;
        next->stats.data_stall_cycles += delta.data_stall_cycles;
        next->remaining -= delta.instructions;
        if (next->remaining == 0)
            next->running = false;
    }
    // Classify every logged event before anything reads a collector.
    for (auto &node : nodes_)
        node->listener->observer().flush();
    flush_l2();
    check_directory();

    Cycle end_cycle = 0;
    for (auto &node : nodes_) {
        node->stats.cycles = node->core->cycle();
        end_cycle = std::max(end_cycle, node->core->cycle());
    }

    MulticoreResult result;
    result.end_cycle = end_cycle;
    result.invalidations = invalidations_;
    result.invalidating_stores = invalidating_stores_;
    result.l2_interval_closes = l2_interval_closes_;
    result.l2 = l2_.stats();

    result.cores.reserve(nodes_.size());
    for (auto &node : nodes_) {
        node->icollector->finalize(end_cycle);
        node->dcollector->finalize(end_cycle);
        CoreOutcome outcome{
            core::CacheObservation(std::move(*node->isink)),
            core::CacheObservation(std::move(*node->dsink))};
        outcome.workload = node->workload_name;
        outcome.stats = node->stats;
        outcome.icache.stats = node->hierarchy->l1i().stats();
        outcome.dcache.stats = node->hierarchy->l1d().stats();
        outcome.invalidations_received = node->invalidations_received;
        // Every L1D interval boundary is an access or a remote kill.
        const std::string core_name = "core " + std::to_string(node->id);
        interval::check_access_count(node->icollector->num_accesses(),
                                     outcome.icache.stats.accesses,
                                     core_name + " L1I");
        interval::check_access_count(node->dcollector->num_accesses(),
                                     outcome.dcache.stats.accesses +
                                         outcome.invalidations_received,
                                     core_name + " L1D");
        result.cores.push_back(std::move(outcome));
    }
    if (!bank_collectors_.empty()) {
        std::uint64_t bank_accesses = 0;
        for (std::uint64_t b = 0; b < banks_; ++b) {
            bank_collectors_[b]->finalize(end_cycle);
            bank_accesses += bank_collectors_[b]->num_accesses();
        }
        interval::check_access_count(
            bank_accesses, result.l2.accesses + l2_interval_closes_,
            "shared L2");
        core::CacheObservation merged(
            interval::IntervalHistogramSet(bank_sinks_.front()));
        for (std::uint64_t b = 1; b < banks_; ++b)
            merged.intervals.merge(bank_sinks_[b]);
        merged.stats = l2_.stats();
        result.l2cache.emplace(std::move(merged));
        result.l2_banks = std::move(bank_sinks_);
    }
    return result;
}

} // namespace

std::vector<std::string>
resolve_mix(const std::string &benchmark,
            const core::ExperimentConfig &config)
{
    if (!config.workload_mix.empty())
        return config.workload_mix;
    if (!workload::is_benchmark(benchmark)) {
        throw util::StatusError(util::Status(
            util::ErrorKind::InvalidArgument,
            "homogeneous multicore runs need a suite benchmark, got '" +
                benchmark + "'"));
    }
    return std::vector<std::string>(config.core_count, benchmark);
}

std::string
mix_label(const std::vector<std::string> &names)
{
    if (names.size() == 1)
        return names.front();
    std::string label = "mc" + std::to_string(names.size()) + ":";
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i != 0)
            label += "+";
        label += names[i];
    }
    return label;
}

MulticoreResult
run_multicore(const std::string &benchmark,
              const core::ExperimentConfig &config)
{
    if (util::Status valid = config.validate(); !valid.ok())
        throw util::StatusError(std::move(valid));
    if (config.keep_raw) {
        throw util::StatusError(util::Status(
            util::ErrorKind::InvalidArgument,
            "raw-interval retention (keep_raw) is single-core only"));
    }
    config.hierarchy.validate();

    const std::vector<std::string> names = resolve_mix(benchmark, config);
    std::string label = mix_label(names);
    Engine engine(names, label, config);
    MulticoreResult result = engine.run();
    result.label = std::move(label);

    std::uint64_t instructions = 0;
    for (const CoreOutcome &core : result.cores)
        instructions += core.stats.instructions;
    util::debug("multicore '", result.label, "': ", names.size(),
                " cores, ", instructions, " instrs, ", result.end_cycle,
                " cycles, ", result.invalidations, " invalidations");
    return result;
}

core::ExperimentResult
MulticoreResult::to_experiment_result() const
{
    core::CacheObservation ic = cores.front().icache;
    core::CacheObservation dc = cores.front().dcache;
    cpu::CoreRunStats stats = cores.front().stats;
    for (std::size_t i = 1; i < cores.size(); ++i) {
        ic.intervals.merge(cores[i].icache.intervals);
        add_cache_stats(ic.stats, cores[i].icache.stats);
        dc.intervals.merge(cores[i].dcache.intervals);
        add_cache_stats(dc.stats, cores[i].dcache.stats);
        stats.instructions += cores[i].stats.instructions;
        stats.fetch_groups += cores[i].stats.fetch_groups;
        stats.loads += cores[i].stats.loads;
        stats.stores += cores[i].stats.stores;
        stats.instr_stall_cycles += cores[i].stats.instr_stall_cycles;
        stats.data_stall_cycles += cores[i].stats.data_stall_cycles;
    }
    // The run's wall-clock extent is the slowest core's, not a sum —
    // exactly the end-of-run timestamp every collector finalized at.
    stats.cycles = end_cycle;

    core::ExperimentResult result(std::move(ic), std::move(dc));
    result.workload = label;
    result.core = stats;
    result.l2cache = l2cache;
    result.l2 = l2;
    return result;
}

core::ExperimentResult
run_multicore_summary(const std::string &benchmark,
                      const core::ExperimentConfig &config)
{
    const auto wall_start = std::chrono::steady_clock::now();
    core::ExperimentResult result =
        run_multicore(benchmark, config).to_experiment_result();
    result.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    return result;
}

} // namespace leakbound::multicore
