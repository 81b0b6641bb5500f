#include "acec/interp.hpp"

namespace ace::ir {

namespace {

union Value {
  std::int64_t i;
  double f;
  void* p;
};

struct LoopFrame {
  std::size_t begin;  // index of kLoopBegin
  std::int64_t counter;
  std::int64_t limit;
};

}  // namespace

ExecStats execute(const Function& f, RuntimeProc& rp, const KernelArgs& args) {
  validate(f);
  ExecStats stats;
  std::vector<Value> v(static_cast<std::size_t>(f.n_regs), Value{.i = 0});
  std::vector<LoopFrame> loops;

  // Matching loop ends, precomputed for zero-trip skips.
  std::vector<std::size_t> match(f.code.size(), 0);
  {
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      if (f.code[i].op == Op::kLoopBegin) stack.push_back(i);
      if (f.code[i].op == Op::kLoopEnd) {
        match[stack.back()] = i;
        stack.pop_back();
      }
    }
  }

  // One start/end annotation.  A direct call (§4.2) names the region's
  // protocol itself; the runtime's *_direct entry charges, counts and
  // traces it like the dispatched one.
  auto annotation = [&](const Inst& inst,
                        void (RuntimeProc::*dispatched)(void*),
                        void (RuntimeProc::*direct)(Region&, Protocol&)) {
    stats.protocol_calls += 1;
    void* ptr = v[inst.a].p;
    if (!inst.direct) return (rp.*dispatched)(ptr);
    Region& r = rp.region_of(ptr);
    (rp.*direct)(r, rp.space(r.space()).protocol());
  };

  for (std::size_t pc = 0; pc < f.code.size(); ++pc) {
    const Inst& inst = f.code[pc];
    stats.insts += 1;
    switch (inst.op) {
      case Op::kConstI: v[inst.dst].i = inst.imm; break;
      case Op::kConstF: v[inst.dst].f = inst.fimm; break;
      case Op::kCopy: v[inst.dst] = v[inst.a]; break;
      case Op::kAddI: v[inst.dst].i = v[inst.a].i + v[inst.b].i; break;
      case Op::kSubI: v[inst.dst].i = v[inst.a].i - v[inst.b].i; break;
      case Op::kMulI: v[inst.dst].i = v[inst.a].i * v[inst.b].i; break;
      case Op::kAddF: v[inst.dst].f = v[inst.a].f + v[inst.b].f; break;
      case Op::kSubF: v[inst.dst].f = v[inst.a].f - v[inst.b].f; break;
      case Op::kMulF: v[inst.dst].f = v[inst.a].f * v[inst.b].f; break;
      case Op::kDivF: v[inst.dst].f = v[inst.a].f / v[inst.b].f; break;
      case Op::kF2I:
        v[inst.dst].i = static_cast<std::int64_t>(v[inst.a].f);
        break;

      case Op::kParamI:
        v[inst.dst].i = args.ints.at(static_cast<std::size_t>(inst.imm));
        break;
      case Op::kParamRegion:
        v[inst.dst].i = static_cast<std::int64_t>(
            args.region_tables.at(static_cast<std::size_t>(inst.imm))
                .at(static_cast<std::size_t>(inst.imm2)));
        break;
      case Op::kParamRegionIdx:
        v[inst.dst].i = static_cast<std::int64_t>(
            args.region_tables.at(static_cast<std::size_t>(inst.imm))
                .at(static_cast<std::size_t>(v[inst.a].i)));
        break;
      case Op::kParamFIdx:
        v[inst.dst].f = args.f64_tables.at(static_cast<std::size_t>(inst.imm))
                            .at(static_cast<std::size_t>(v[inst.a].i));
        break;

      case Op::kLoadShared:
      case Op::kStoreShared:
        ACE_CHECK_MSG(false, "run the annotator before executing IR");
        break;

      case Op::kMap:
        stats.protocol_calls += 1;
        v[inst.dst].p = rp.map(static_cast<RegionId>(v[inst.a].i));
        break;
      case Op::kStartRead:
        annotation(inst, &RuntimeProc::start_read,
                   &RuntimeProc::start_read_direct);
        break;
      case Op::kEndRead:
        annotation(inst, &RuntimeProc::end_read, &RuntimeProc::end_read_direct);
        break;
      case Op::kStartWrite:
        annotation(inst, &RuntimeProc::start_write,
                   &RuntimeProc::start_write_direct);
        break;
      case Op::kEndWrite:
        annotation(inst, &RuntimeProc::end_write,
                   &RuntimeProc::end_write_direct);
        break;
      case Op::kLoadPtr:
        v[inst.dst].f = static_cast<double*>(v[inst.a].p)[v[inst.b].i];
        break;
      case Op::kStorePtr:
        static_cast<double*>(v[inst.a].p)[v[inst.b].i] = v[inst.c].f;
        break;

      case Op::kNewSpace:
        v[inst.dst].i = rp.new_space(
            proto_index()[static_cast<std::size_t>(inst.imm)]);
        break;
      case Op::kChangeProtocol: {
        const auto space = static_cast<SpaceId>(
            inst.a >= 0 ? v[inst.a].i : inst.imm2);
        rp.change_protocol(space,
                           proto_index()[static_cast<std::size_t>(inst.imm)]);
        break;
      }
      case Op::kGMallocR: {
        const auto space = static_cast<SpaceId>(
            inst.a >= 0 ? v[inst.a].i : inst.imm2);
        v[inst.dst].i = static_cast<std::int64_t>(
            rp.gmalloc(space, static_cast<std::uint32_t>(inst.imm)));
        break;
      }

      case Op::kLoopBegin: {
        const std::int64_t limit = v[inst.a].i;
        if (limit <= 0) {
          pc = match[pc];  // skip the body (the for-loop pc++ passes kLoopEnd)
          break;
        }
        v[inst.dst].i = 0;
        loops.push_back({pc, 0, limit});
        break;
      }
      case Op::kLoopEnd: {
        LoopFrame& frame = loops.back();
        frame.counter += 1;
        if (frame.counter < frame.limit) {
          v[f.code[frame.begin].dst].i = frame.counter;
          pc = frame.begin;  // for-loop pc++ lands on the first body inst
        } else {
          loops.pop_back();
        }
        break;
      }
      case Op::kBarrier: {
        const auto space = static_cast<SpaceId>(
            inst.a >= 0 ? v[inst.a].i : inst.imm2);
        rp.ace_barrier(space);
        break;
      }
      case Op::kCharge:
        rp.charge_compute(static_cast<std::uint64_t>(inst.imm));
        break;
    }
  }
  ACE_CHECK_MSG(loops.empty(), "kernel ended inside a loop");
  return stats;
}

}  // namespace ace::ir
