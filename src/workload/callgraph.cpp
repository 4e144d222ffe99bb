/**
 * @file
 * Implementation of the call-graph walker.
 */

#include "workload/callgraph.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace leakbound::workload {

namespace {

/** @p spec, once its ranges are walkable; fatal naming @p name if not. */
const CallGraphSpec &
checked(const std::string &name, const CallGraphSpec &spec)
{
    using util::fatal;
    if (spec.num_functions == 0)
        fatal("callgraph '", name, "': needs at least one function");
    if (spec.min_instrs == 0 || spec.min_instrs > spec.max_instrs)
        fatal("callgraph '", name, "': bad body size range");
    if (spec.repeat_min == 0 || spec.repeat_min > spec.repeat_max)
        fatal("callgraph '", name, "': bad repeat range");
    return spec;
}

} // namespace

CallGraphProgram::CallGraphProgram(std::string name, Pc code_base,
                                   const CallGraphSpec &spec,
                                   std::vector<DataPatternPtr> patterns,
                                   std::uint64_t seed)
    : name_(std::move(name)), spec_(checked(name_, spec)),
      repeat_span_(std::uint64_t{spec_.repeat_max} - spec_.repeat_min + 1),
      callee_count_(std::max(spec_.fanout, 1u)),
      function_count_(spec_.num_functions), patterns_(std::move(patterns)),
      seed_(seed), run_rng_(seed)
{
    if (spec_.mem_fraction > 0.0 && patterns_.empty())
        util::fatal("callgraph '", name_, "': memory fraction set but no ",
                    "data patterns supplied");

    util::Rng layout_rng(seed ^ 0xca11c0deULL);
    functions_.resize(spec_.num_functions);
    Pc next_pc = code_base;
    for (std::uint32_t i = 0; i < spec_.num_functions; ++i) {
        Function &fn = functions_[i];
        const std::uint32_t size = static_cast<std::uint32_t>(
            layout_rng.next_in(spec_.min_instrs, spec_.max_instrs));
        fn.base_pc = next_pc;
        fn.instrs = size;
        next_pc += static_cast<Pc>(size) * kInstrBytes;
        fn.mem_begin = static_cast<std::uint32_t>(mem_slots_.size());
        for (std::uint32_t k = 0; k < size; ++k) {
            if (!patterns_.empty() &&
                layout_rng.next_bool(spec_.mem_fraction)) {
                const bool store = layout_rng.next_bool(spec_.store_fraction);
                mem_slots_.push_back(SpanBatch::slot(k, store));
            }
        }
        fn.mem_end = static_cast<std::uint32_t>(mem_slots_.size());
        if (!patterns_.empty()) {
            fn.pattern =
                patterns_[layout_rng.next_below(patterns_.size())].get();
        }
        // Callees: locality-biased — mostly the near neighbourhood,
        // with occasional long jumps that make the walk drift.
        fn.callees.reserve(spec_.fanout);
        for (std::uint32_t c = 0; c < spec_.fanout; ++c) {
            std::uint32_t callee;
            if (layout_rng.next_bool(spec_.locality) &&
                spec_.num_functions > 1) {
                const std::uint64_t span = 2ULL * spec_.neighbourhood + 1;
                const std::int64_t offset =
                    static_cast<std::int64_t>(
                        layout_rng.next_below(span)) -
                    spec_.neighbourhood;
                std::int64_t target = static_cast<std::int64_t>(i) + offset;
                const auto n =
                    static_cast<std::int64_t>(spec_.num_functions);
                target = ((target % n) + n) % n;
                callee = static_cast<std::uint32_t>(target);
            } else {
                callee = static_cast<std::uint32_t>(
                    layout_rng.next_below(spec_.num_functions));
            }
            fn.callees.push_back(callee);
        }
    }
    code_bytes_ = next_pc - code_base;

    start_run();
}

void
CallGraphProgram::start_run()
{
    run_rng_ = util::Rng(seed_ ^ 0x0a1c5eedULL);
    enter(0);
}

void
CallGraphProgram::enter(std::uint32_t function)
{
    current_ = function;
    repeats_left_ = static_cast<std::uint32_t>(
        run_rng_.next_in(spec_.repeat_min, repeat_span_));
    instr_idx_ = 0;
    mem_idx_ = functions_[function].mem_begin;
}

void
CallGraphProgram::finish_body(const Function &fn)
{
    if (repeats_left_ > 1) {
        --repeats_left_;
        instr_idx_ = 0;
        mem_idx_ = fn.mem_begin;
        return;
    }
    // Every function has spec_.fanout callees.
    const auto &callees = fn.callees;
    const std::uint32_t nxt =
        callees.empty()
            ? static_cast<std::uint32_t>(
                  run_rng_.next_below(function_count_))
            : callees[run_rng_.next_below(callee_count_)];
    enter(nxt);
}

bool
CallGraphProgram::next(trace::MicroOp &op)
{
    const Function *fn = &functions_[current_];
    while (instr_idx_ >= fn->instrs) {
        finish_body(*fn);
        fn = &functions_[current_];
    }

    op.pc = fn->base_pc + static_cast<Pc>(instr_idx_) * kInstrBytes;
    if (mem_idx_ < fn->mem_end &&
        SpanBatch::offset(mem_slots_[mem_idx_]) == instr_idx_) {
        op.kind = SpanBatch::is_store(mem_slots_[mem_idx_++])
                      ? trace::InstrKind::Store
                      : trace::InstrKind::Load;
        op.addr = fn->pattern->next();
    } else {
        op.kind = trace::InstrKind::Op;
        op.addr = kInvalidAddr;
    }
    ++instr_idx_;
    return true;
}

std::uint64_t
CallGraphProgram::next_spans(SpanBatch &out, std::uint64_t max_instructions)
{
    // The rest of the current body up to the cap, one span per call of
    // append_body; the repeat/call steps between bodies are next()'s.
    std::uint64_t got = 0;
    while (got < max_instructions && !out.full()) {
        const Function &fn = functions_[current_];
        if (instr_idx_ >= fn.instrs) {
            finish_body(fn);
            continue;
        }
        const auto end = static_cast<std::uint32_t>(
            instr_idx_ + std::min<std::uint64_t>(fn.instrs - instr_idx_,
                                                 max_instructions - got));
        const std::uint32_t took =
            out.append_body(fn.base_pc, instr_idx_, end, mem_slots_.data(),
                            mem_idx_, fn.mem_end, fn.pattern);
        instr_idx_ += took;
        got += took;
    }
    return got;
}

void
CallGraphProgram::reset()
{
    for (auto &p : patterns_)
        p->reset();
    start_run();
}

} // namespace leakbound::workload
