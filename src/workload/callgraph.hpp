/**
 * @file
 * Call-graph walker workload.
 *
 * Models programs whose instruction working set far exceeds the L1I
 * (gcc, vortex): a population of functions of varying sizes laid out
 * contiguously, connected by a locality-biased random call graph.
 * Execution walks the graph, running each function's straight-line
 * body (optionally several times — a hot internal loop) before
 * calling out.  The walk keeps a hot neighbourhood while slowly
 * drifting, producing the broad I-cache interval spectra large codes
 * exhibit.
 */

#ifndef LEAKBOUND_WORKLOAD_CALLGRAPH_HPP
#define LEAKBOUND_WORKLOAD_CALLGRAPH_HPP

#include <vector>

#include "util/random.hpp"
#include "workload/data_pattern.hpp"
#include "workload/workload.hpp"

namespace leakbound::workload {

/** Shape of the synthetic call graph. */
struct CallGraphSpec
{
    std::uint32_t num_functions = 256;
    std::uint32_t min_instrs = 32;    ///< function body size range
    std::uint32_t max_instrs = 1024;
    std::uint32_t fanout = 4;         ///< callees per function
    double locality = 0.75;           ///< P(callee is a near neighbour)
    std::uint32_t neighbourhood = 12; ///< "near" = within this index gap
    std::uint32_t repeat_min = 1;     ///< body repeats per visit
    std::uint32_t repeat_max = 3;
    double mem_fraction = 0.3;        ///< memory instructions per body
    double store_fraction = 0.3;
};

/** The call-graph workload. */
class CallGraphProgram final : public Workload
{
  public:
    /**
     * @param name benchmark name
     * @param code_base PC of the first function
     * @param spec graph shape
     * @param patterns data-pattern pool; functions are assigned
     *        patterns round-robin with a seeded shuffle
     * @param seed drives layout and the walk
     */
    CallGraphProgram(std::string name, Pc code_base,
                     const CallGraphSpec &spec,
                     std::vector<DataPatternPtr> patterns,
                     std::uint64_t seed);

    std::string name() const override { return name_; }
    bool next(trace::MicroOp &op) override;
    std::uint64_t next_spans(SpanBatch &out,
                             std::uint64_t max_instructions) override;
    void reset() override;

    /** Static code footprint in bytes. */
    std::uint64_t code_bytes() const { return code_bytes_; }

  private:
    /**
     * One function: its body's instructions, the static kind of each
     * as the body's memory-op SpanBatch slots in mem_slots_[mem_begin,
     * mem_end) (every other instruction is a plain op), and its
     * callees.
     */
    struct Function
    {
        Pc base_pc = 0;
        std::uint32_t instrs = 0;
        std::uint32_t mem_begin = 0;
        std::uint32_t mem_end = 0;
        std::vector<std::uint32_t> callees;
        DataPattern *pattern = nullptr;
    };

    void start_run();
    void enter(std::uint32_t function);
    /** Repeat the finished body of @p fn, or call out of it. */
    void finish_body(const Function &fn);

    std::string name_;
    CallGraphSpec spec_;
    /** The walk's fixed draw bounds, so a draw costs no divide. */
    util::FixedBound repeat_span_;    ///< repeat_max - repeat_min + 1
    util::FixedBound callee_count_;   ///< fanout (1 when there are none)
    util::FixedBound function_count_; ///< num_functions
    std::vector<Function> functions_;
    std::vector<std::uint32_t> mem_slots_; ///< every body's, in layout order
    std::uint64_t code_bytes_ = 0;
    std::vector<DataPatternPtr> patterns_;
    std::uint64_t seed_;

    util::Rng run_rng_;
    std::uint32_t current_ = 0;
    std::uint32_t repeats_left_ = 0;
    std::uint32_t instr_idx_ = 0;
    std::uint32_t mem_idx_ = 0; ///< first slot at or after instr_idx_
};

} // namespace leakbound::workload

#endif // LEAKBOUND_WORKLOAD_CALLGRAPH_HPP
