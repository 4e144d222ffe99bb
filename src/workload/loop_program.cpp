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

/** Bytes per instruction (fixed-width encoding). */
constexpr std::uint32_t kInstrBytes = 4;

/** Address draws batched per DataPattern::fill() call. */
constexpr std::size_t kAddrBatch = 64;

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
        flat.pattern = b.pattern;
        flat.kinds.reserve(b.instrs);
        for (std::uint32_t i = 0; i < b.instrs; ++i) {
            if (b.pattern >= 0 && layout_rng.next_bool(b.mem_fraction)) {
                flat.kinds.push_back(layout_rng.next_bool(b.store_fraction)
                                         ? trace::InstrKind::Store
                                         : trace::InstrKind::Load);
            } else {
                flat.kinds.push_back(trace::InstrKind::Op);
            }
        }
        flat.mem_prefix.reserve(b.instrs + 1);
        flat.mem_prefix.push_back(0);
        for (trace::InstrKind k : flat.kinds) {
            flat.mem_prefix.push_back(
                flat.mem_prefix.back() +
                (k != trace::InstrKind::Op ? 1 : 0));
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

        if (cur_block_ != nullptr) {
            if (instr_idx_ >= cur_block_->kinds.size()) {
                cur_block_ = nullptr;
                continue;
            }
            op.pc = cur_block_->base_pc +
                    static_cast<Pc>(instr_idx_) * kInstrBytes;
            op.kind = cur_block_->kinds[instr_idx_];
            if (op.kind == trace::InstrKind::Op) {
                op.addr = kInvalidAddr;
            } else {
                op.addr = patterns_[static_cast<std::size_t>(
                                        cur_block_->pattern)]
                              ->next();
            }
            ++instr_idx_;
            return true;
        }

        Frame &frame = stack_.back();
        const std::vector<FlatNode> &body = body_of(frame);
        if (frame.pos < body.size()) {
            const FlatNode &node = body[frame.pos++];
            if (node.kind == NodeSpec::Kind::Block) {
                cur_block_ = &blocks_[node.block_index];
                instr_idx_ = 0;
            } else {
                const std::uint64_t trips =
                    run_rng_.next_in(node.min_trips, node.max_trips);
                if (trips > 0)
                    stack_.push_back(Frame{&node, trips, 0});
            }
            continue;
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
}

std::size_t
LoopProgram::next_batch(trace::MicroOp *out, std::size_t max)
{
    // Block-filling form of next(): the two emission states (latch,
    // straight-line block) run as tight loops emitting exactly the ops
    // next() would, with identical pattern draws; the state-machine
    // transitions between them reuse next() itself.
    std::size_t got = 0;
    while (got < max) {
        if (latch_pc_ != 0) {
            while (got < max && latch_pc_ != 0) {
                trace::MicroOp &op = out[got++];
                op.pc =
                    latch_pc_ + static_cast<Pc>(latch_idx_) * kInstrBytes;
                op.kind = trace::InstrKind::Op;
                op.addr = kInvalidAddr;
                if (++latch_idx_ == kLatchInstrs)
                    latch_pc_ = 0;
            }
            continue;
        }
        if (cur_block_ != nullptr &&
            instr_idx_ < cur_block_->kinds.size()) {
            const FlatBlock &blk = *cur_block_;
            DataPattern *pattern =
                blk.pattern >= 0
                    ? patterns_[static_cast<std::size_t>(blk.pattern)]
                          .get()
                    : nullptr;
            const std::size_t end_all = blk.kinds.size();
            while (got < max && instr_idx_ < end_all) {
                // Count the span's pattern draws up front and batch
                // them through one virtual fill() — same draws in the
                // same order next() would make.
                const std::size_t span =
                    std::min({end_all - instr_idx_, max - got,
                              kAddrBatch});
                const std::size_t start = instr_idx_;
                const std::size_t end = start + span;
                const std::uint32_t nmem =
                    blk.mem_prefix[end] - blk.mem_prefix[start];
                Addr addrs[kAddrBatch];
                if (nmem != 0)
                    pattern->fill(addrs, nmem);
                std::size_t draw = 0;
                for (std::size_t i = start; i < end; ++i) {
                    trace::MicroOp &op = out[got++];
                    op.pc = blk.base_pc + static_cast<Pc>(i) * kInstrBytes;
                    op.kind = blk.kinds[i];
                    op.addr = op.kind == trace::InstrKind::Op
                                  ? kInvalidAddr
                                  : addrs[draw++];
                }
                instr_idx_ = static_cast<std::uint32_t>(end);
            }
            continue;
        }
        if (!next(out[got]))
            break;
        ++got;
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
