/**
 * @file
 * Loop-nest program generator.
 *
 * A LoopProgram is a tree of straight-line blocks and counted loops
 * (with per-entry random trip counts), executed forever from the top.
 * It reproduces the interval anatomy of paper Figure 2: the re-access
 * interval of an outer-loop instruction is governed by the inner
 * loop's (possibly varying) trip count.
 *
 * Static properties (PCs, which instructions are loads/stores) are
 * fixed at construction from the seed; dynamic properties (trip
 * counts, data addresses) are drawn during execution, also seeded, so
 * runs are exactly reproducible.
 */

#ifndef LEAKBOUND_WORKLOAD_LOOP_PROGRAM_HPP
#define LEAKBOUND_WORKLOAD_LOOP_PROGRAM_HPP

#include <vector>

#include "util/random.hpp"
#include "workload/data_pattern.hpp"
#include "workload/workload.hpp"

namespace leakbound::workload {

/** A straight-line block of instructions. */
struct BlockSpec
{
    std::uint32_t instrs = 16;    ///< instructions in the block
    double mem_fraction = 0.25;   ///< fraction that reference memory
    double store_fraction = 0.3;  ///< of those, fraction that store
    int pattern = -1;             ///< pattern-pool index; -1 = none
};

/** A node of the loop tree: either a block or a counted loop. */
struct NodeSpec
{
    enum class Kind { Block, Loop };

    Kind kind = Kind::Block;
    BlockSpec block;              ///< valid when kind == Block
    std::uint64_t min_trips = 1;  ///< valid when kind == Loop
    std::uint64_t max_trips = 1;  ///< trip count drawn per loop entry
    std::vector<NodeSpec> body;   ///< valid when kind == Loop

    /** Make a block node. */
    static NodeSpec make_block(const BlockSpec &spec);

    /** Make a loop node with trips drawn uniformly per entry. */
    static NodeSpec make_loop(std::uint64_t min_trips,
                              std::uint64_t max_trips,
                              std::vector<NodeSpec> body);
};

/** The loop-nest workload. */
class LoopProgram final : public Workload
{
  public:
    /**
     * @param name benchmark name
     * @param code_base PC of the first instruction
     * @param top_level program body, executed in an endless loop
     * @param patterns data-pattern pool referenced by BlockSpec::pattern
     * @param seed drives both static layout and dynamic draws
     */
    LoopProgram(std::string name, Pc code_base,
                std::vector<NodeSpec> top_level,
                std::vector<DataPatternPtr> patterns, std::uint64_t seed);

    std::string name() const override { return name_; }
    bool next(trace::MicroOp &op) override;
    std::size_t next_batch(trace::MicroOp *out, std::size_t max) override;
    void reset() override;

    /** Static code footprint in bytes (blocks + loop latches). */
    std::uint64_t code_bytes() const { return code_bytes_; }

  private:
    /** Flattened block: PCs plus the per-instruction static kinds. */
    struct FlatBlock
    {
        Pc base_pc = 0;
        std::vector<trace::InstrKind> kinds;
        /**
         * mem_prefix[i] = memory ops among kinds[0..i) — lets
         * next_batch() count the pattern draws of any span up front
         * and batch them through DataPattern::fill().
         */
        std::vector<std::uint32_t> mem_prefix;
        int pattern = -1;
    };

    /** Flattened node referencing the spec tree. */
    struct FlatNode
    {
        NodeSpec::Kind kind;
        std::size_t block_index = 0;     ///< into blocks_ (Block)
        std::uint64_t min_trips = 1;     ///< (Loop)
        std::uint64_t max_trips = 1;
        std::vector<FlatNode> body;      ///< (Loop)
        Pc latch_pc = 0;                 ///< loop latch block (Loop)
    };

    /** Interpreter stack frame: a loop in progress. */
    struct Frame
    {
        const FlatNode *loop;   ///< nullptr = the implicit top loop
        std::uint64_t trips_left;
        std::size_t pos;        ///< next child to execute
    };

    FlatNode flatten(const NodeSpec &spec, Pc &next_pc,
                     util::Rng &layout_rng);
    void start_run();
    const std::vector<FlatNode> &body_of(const Frame &frame) const;

    std::string name_;
    Pc code_base_;
    std::vector<FlatBlock> blocks_;
    std::vector<FlatNode> top_;
    Pc top_latch_pc_ = 0;
    std::uint64_t code_bytes_ = 0;
    std::vector<DataPatternPtr> patterns_;
    std::uint64_t seed_;

    util::Rng run_rng_;
    std::vector<Frame> stack_;
    const FlatBlock *cur_block_ = nullptr;
    std::uint32_t instr_idx_ = 0;
    Pc latch_pc_ = 0;       ///< nonzero while emitting a latch
    std::uint32_t latch_idx_ = 0;
};

} // namespace leakbound::workload

#endif // LEAKBOUND_WORKLOAD_LOOP_PROGRAM_HPP
