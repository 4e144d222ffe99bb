/**
 * @file
 * Implementation of the loop-nest program generator.
 */

#include "workload/loop_program.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace leakbound::workload {

namespace {

/** Instructions in a loop latch (compare + branch). */
constexpr std::uint32_t kLatchInstrs = 2;

} // namespace

NodeSpec
NodeSpec::make_block(const BlockSpec &spec)
{
    NodeSpec node;
    node.kind = Kind::Block;
    node.block = spec;
    return node;
}

NodeSpec
NodeSpec::make_loop(std::uint64_t min_trips, std::uint64_t max_trips,
                    std::vector<NodeSpec> body)
{
    LEAKBOUND_ASSERT(min_trips <= max_trips, "loop trips: min > max");
    NodeSpec node;
    node.kind = Kind::Loop;
    node.min_trips = min_trips;
    node.max_trips = max_trips;
    node.body = std::move(body);
    return node;
}

LoopProgram::LoopProgram(std::string name, Pc code_base,
                         std::vector<NodeSpec> top_level,
                         std::vector<DataPatternPtr> patterns,
                         std::uint64_t seed)
    : name_(std::move(name)), code_base_(code_base),
      patterns_(std::move(patterns)), seed_(seed), run_rng_(seed)
{
    // Static layout: assign PCs and per-instruction kinds with a
    // dedicated RNG so the layout never depends on execution order.
    util::Rng layout_rng(seed ^ 0xc0def00dULL);
    Pc next_pc = code_base_;
    top_.reserve(top_level.size());
    for (const NodeSpec &spec : top_level)
        top_.push_back(flatten(spec, next_pc, layout_rng));
    top_latch_pc_ = next_pc;
    next_pc += kLatchInstrs * kInstrBytes;
    code_bytes_ = next_pc - code_base_;

    start_run();
}

LoopProgram::FlatNode
LoopProgram::flatten(const NodeSpec &spec, Pc &next_pc,
                     util::Rng &layout_rng)
{
    FlatNode node;
    node.kind = spec.kind;
    if (spec.kind == NodeSpec::Kind::Block) {
        const BlockSpec &b = spec.block;
        if (b.mem_fraction > 0.0 &&
            (b.pattern < 0 ||
             static_cast<std::size_t>(b.pattern) >= patterns_.size())) {
            util::fatal("workload '", name_, "': block references ",
                        "pattern ", b.pattern, " but the pool has ",
                        patterns_.size(), " patterns");
        }
        FlatBlock flat;
        flat.base_pc = next_pc;
        flat.instrs = b.instrs;
        flat.mem_begin = static_cast<std::uint32_t>(mem_slots_.size());
        for (std::uint32_t i = 0; i < b.instrs; ++i) {
            if (b.pattern >= 0 && layout_rng.next_bool(b.mem_fraction)) {
                const bool store = layout_rng.next_bool(b.store_fraction);
                mem_slots_.push_back(SpanBatch::slot(i, store));
            }
        }
        flat.mem_end = static_cast<std::uint32_t>(mem_slots_.size());
        if (flat.mem_end != flat.mem_begin) {
            flat.pattern =
                patterns_[static_cast<std::size_t>(b.pattern)].get();
        }
        next_pc += static_cast<Pc>(b.instrs) * kInstrBytes;
        node.block_index = blocks_.size();
        blocks_.push_back(std::move(flat));
    } else {
        node.min_trips = spec.min_trips;
        node.max_trips = spec.max_trips;
        node.body.reserve(spec.body.size());
        for (const NodeSpec &child : spec.body)
            node.body.push_back(flatten(child, next_pc, layout_rng));
        node.latch_pc = next_pc;
        next_pc += kLatchInstrs * kInstrBytes;
    }
    return node;
}

void
LoopProgram::start_run()
{
    run_rng_ = util::Rng(seed_ ^ 0x5eedULL);
    stack_.clear();
    stack_.push_back(Frame{nullptr, 0, 0});
    cur_block_ = nullptr;
    instr_idx_ = 0;
    mem_idx_ = 0;
    latch_pc_ = 0;
    latch_idx_ = 0;
}

const std::vector<LoopProgram::FlatNode> &
LoopProgram::body_of(const Frame &frame) const
{
    return frame.loop ? frame.loop->body : top_;
}

bool
LoopProgram::next(trace::MicroOp &op)
{
    for (;;) {
        if (latch_pc_ != 0) {
            op.pc = latch_pc_ + static_cast<Pc>(latch_idx_) * kInstrBytes;
            op.kind = trace::InstrKind::Op;
            op.addr = kInvalidAddr;
            if (++latch_idx_ == kLatchInstrs)
                latch_pc_ = 0;
            return true;
        }

        if (cur_block_ != nullptr && instr_idx_ < cur_block_->instrs) {
            op.pc = cur_block_->base_pc +
                    static_cast<Pc>(instr_idx_) * kInstrBytes;
            if (mem_idx_ < cur_block_->mem_end &&
                SpanBatch::offset(mem_slots_[mem_idx_]) == instr_idx_) {
                op.kind = SpanBatch::is_store(mem_slots_[mem_idx_++])
                              ? trace::InstrKind::Store
                              : trace::InstrKind::Load;
                op.addr = cur_block_->pattern->next();
            } else {
                op.kind = trace::InstrKind::Op;
                op.addr = kInvalidAddr;
            }
            ++instr_idx_;
            return true;
        }

        advance();
    }
}

void
LoopProgram::advance()
{
    cur_block_ = nullptr;
    Frame &frame = stack_.back();
    const std::vector<FlatNode> &body = body_of(frame);
    if (frame.pos < body.size()) {
        const FlatNode &node = body[frame.pos++];
        if (node.kind == NodeSpec::Kind::Block) {
            cur_block_ = &blocks_[node.block_index];
            instr_idx_ = 0;
            mem_idx_ = cur_block_->mem_begin;
        } else {
            const std::uint64_t trips =
                run_rng_.next_in(node.min_trips, node.max_trips);
            if (trips > 0)
                stack_.push_back(Frame{&node, trips, 0});
        }
        return;
    }

    // Body finished: emit the latch, then either iterate or exit.
    latch_pc_ = frame.loop ? frame.loop->latch_pc : top_latch_pc_;
    latch_idx_ = 0;
    if (frame.loop == nullptr) {
        frame.pos = 0; // the top-level loop runs forever
    } else if (--frame.trips_left > 0) {
        frame.pos = 0;
    } else {
        stack_.pop_back();
    }
}

std::uint64_t
LoopProgram::next_spans(SpanBatch &out, std::uint64_t max_instructions)
{
    // The two emission states of next() as spans: the rest of the
    // latch, or the rest of the block up to the cap; the interpreter
    // steps between them are next()'s own.
    std::uint64_t got = 0;
    while (got < max_instructions && !out.full()) {
        const std::uint64_t cap = max_instructions - got;
        if (latch_pc_ != 0) {
            const auto take = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(kLatchInstrs - latch_idx_, cap));
            out.span[out.spans++] = {
                latch_pc_ + static_cast<Pc>(latch_idx_) * kInstrBytes, take,
                0};
            got += take;
            latch_idx_ += take;
            if (latch_idx_ == kLatchInstrs)
                latch_pc_ = 0;
            continue;
        }
        if (cur_block_ != nullptr && instr_idx_ < cur_block_->instrs) {
            const FlatBlock &blk = *cur_block_;
            const auto end = static_cast<std::uint32_t>(
                instr_idx_ +
                std::min<std::uint64_t>(blk.instrs - instr_idx_, cap));
            const std::uint32_t took = out.append_body(
                blk.base_pc, instr_idx_, end, mem_slots_.data(), mem_idx_,
                blk.mem_end, blk.pattern);
            instr_idx_ += took;
            got += took;
            continue;
        }
        advance();
    }
    return got;
}

void
LoopProgram::reset()
{
    for (auto &p : patterns_)
        p->reset();
    start_run();
}

} // namespace leakbound::workload
