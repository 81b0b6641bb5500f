#include "acec/kernels.hpp"

#include <cmath>

#include "apps/ids.hpp"
#include "common/rng.hpp"

namespace ace::ir {

namespace {

using apps::rr_owner;

/// Small embedded-DSL wrapper over Function for readable kernel builders.
struct B {
  Function f;

  std::int32_t ci(std::int64_t v) {
    const auto r = f.reg();
    f.emit({.op = Op::kConstI, .dst = r, .imm = v});
    return r;
  }
  std::int32_t cf(double v) {
    const auto r = f.reg();
    f.emit({.op = Op::kConstF, .dst = r, .fimm = v});
    return r;
  }
  std::int32_t param_i(std::int64_t idx) {
    const auto r = f.reg();
    f.emit({.op = Op::kParamI, .dst = r, .imm = idx});
    return r;
  }
  std::int32_t param_region(std::int64_t table, std::int64_t idx) {
    const auto r = f.reg();
    f.emit({.op = Op::kParamRegion, .dst = r, .imm = table, .imm2 = idx});
    return r;
  }
  std::int32_t param_region_idx(std::int64_t table, std::int32_t idx_reg) {
    const auto r = f.reg();
    f.emit({.op = Op::kParamRegionIdx, .dst = r, .a = idx_reg, .imm = table});
    return r;
  }
  std::int32_t param_f(std::int64_t table, std::int32_t idx_reg) {
    const auto r = f.reg();
    f.emit({.op = Op::kParamFIdx, .dst = r, .a = idx_reg, .imm = table});
    return r;
  }
  std::int32_t f2i(std::int32_t a) {
    const auto r = f.reg();
    f.emit({.op = Op::kF2I, .dst = r, .a = a});
    return r;
  }
  std::int32_t bin(Op op, std::int32_t a, std::int32_t b) {
    const auto r = f.reg();
    f.emit({.op = op, .dst = r, .a = a, .b = b});
    return r;
  }
  std::int32_t add_i(std::int32_t a, std::int32_t b) { return bin(Op::kAddI, a, b); }
  std::int32_t mul_i(std::int32_t a, std::int32_t b) { return bin(Op::kMulI, a, b); }
  std::int32_t add_f(std::int32_t a, std::int32_t b) { return bin(Op::kAddF, a, b); }
  std::int32_t sub_f(std::int32_t a, std::int32_t b) { return bin(Op::kSubF, a, b); }
  std::int32_t mul_f(std::int32_t a, std::int32_t b) { return bin(Op::kMulF, a, b); }
  std::int32_t load(std::int32_t region, std::int32_t idx) {
    const auto r = f.reg();
    f.emit({.op = Op::kLoadShared, .dst = r, .a = region, .b = idx});
    return r;
  }
  void store(std::int32_t region, std::int32_t idx, std::int32_t val) {
    f.emit({.op = Op::kStoreShared, .a = region, .b = idx, .c = val});
  }
  std::int32_t loop(std::int32_t count) {
    const auto r = f.reg();
    f.emit({.op = Op::kLoopBegin, .dst = r, .a = count});
    return r;
  }
  void loop_end() { f.emit({.op = Op::kLoopEnd}); }
  void barrier(SpaceId space) {
    f.emit({.op = Op::kBarrier, .imm2 = static_cast<std::int64_t>(space)});
  }
  void charge(std::int64_t ns) { f.emit({.op = Op::kCharge, .imm = ns}); }
};

/// Allocate `count` single-space regions round-robin and share the table.
template <class Api>
std::vector<RegionId> alloc_shared(Api& rp, SpaceId space, std::uint32_t count,
                                   std::uint32_t bytes) {
  std::vector<RegionId> ids(count);
  for (std::uint32_t i = 0; i < count; ++i)
    if (rr_owner(i, rp.nprocs()) == rp.me()) ids[i] = rp.gmalloc(space, bytes);
  apps::AceApi api(rp);
  apps::share_ids(api, ids,
                  [&](std::size_t i) { return rr_owner(i, rp.nprocs()); });
  return ids;
}

/// The checksum of a kernel whose home regions (KernelArgs::home) each hold
/// `doubles` values: their sum (of their magnitudes, with `magnitudes`),
/// summed per region, then region by region in table order.
auto home_sum(std::uint32_t doubles, bool magnitudes = false) {
  return [doubles, magnitudes](RuntimeProc& rp, const KernelArgs& args) {
    double s = 0;
    for (const RegionId id : args.home) {
      auto* p = static_cast<double*>(rp.map(id));
      rp.start_read(p);
      double region = 0;
      for (std::uint32_t k = 0; k < doubles; ++k)
        region += magnitudes ? std::abs(p[k]) : p[k];
      rp.end_read(p);
      rp.unmap(p);
      s += region;
    }
    return s;
  };
}

// ---------------------------------------------------------------------------
// EM3D kernel (StaticUpdate; DC deletes the null hooks in the edge loop)
// ---------------------------------------------------------------------------

KernelCase em3d_case(std::uint32_t scale) {
  KernelCase kc;
  kc.name = "EM3D";
  const std::uint32_t deg = 8;
  const std::uint32_t steps = 4 * scale;

  B b;
  b.f.name = "em3d_kernel";
  b.f.table_space = {1, 2};  // table0: E nodes (space 1), table1: H (space 2)
  const auto n_my = b.param_i(0);
  const auto r_deg = b.param_i(1);
  const auto r_steps = b.param_i(2);
  const auto zero = b.ci(0);
  const auto t = b.loop(r_steps);
  (void)t;
  {
    const auto i = b.loop(n_my);
    {
      auto acc = b.cf(0.0);
      const auto base = b.mul_i(i, r_deg);
      const auto j = b.loop(r_deg);
      {
        const auto idx = b.add_i(base, j);
        const auto h = b.param_region_idx(1, idx);
        const auto val = b.load(h, zero);
        const auto w = b.param_f(0, idx);
        const auto term = b.mul_f(w, val);
        const auto acc2 = b.add_f(acc, term);
        b.f.emit({.op = Op::kCopy, .dst = acc, .a = acc2});
        b.charge(300);
      }
      b.loop_end();
      const auto e = b.param_region_idx(0, i);
      b.store(e, zero, acc);
      b.charge(200);
    }
    b.loop_end();
    b.barrier(1);
  }
  b.loop_end();
  kc.program = std::move(b.f);
  kc.space_protocols = {{1, {proto_names::kStaticUpdate}},
                        {2, {proto_names::kStaticUpdate}}};

  kc.setup = [deg, steps, scale](RuntimeProc& rp) -> KernelArgs {
    const std::uint32_t P = rp.nprocs();
    const std::uint32_t n = 24 * P * scale;
    const SpaceId eval = rp.new_space(proto_names::kSC);   // space 1
    const SpaceId hval = rp.new_space(proto_names::kSC);   // space 2
    ACE_CHECK(eval == 1 && hval == 2);
    const std::vector<RegionId> e_ids = alloc_shared(rp, eval, n, sizeof(double));
    const std::vector<RegionId> h_ids = alloc_shared(rp, hval, n, sizeof(double));
    // Initialize H values (E is overwritten by the kernel).
    Rng rng(7);
    for (std::uint32_t i = 0; i < n; ++i) {
      const double v = rng.next_double(-1, 1);
      if (rr_owner(i, P) != rp.me()) continue;
      auto* p = static_cast<double*>(rp.map(h_ids[i]));
      rp.start_write(p);
      *p = v;
      rp.end_write(p);
      rp.unmap(p);
    }
    rp.proc().barrier();
    rp.change_protocol(eval, proto_names::kStaticUpdate);
    rp.change_protocol(hval, proto_names::kStaticUpdate);

    // Per-processor edge lists (deterministic).
    KernelArgs args;
    std::vector<RegionId> my_e, nbrs;
    std::vector<double> weights;
    Rng grng(11);
    for (std::uint32_t i = 0; i < n; ++i) {
      const bool mine = rr_owner(i, P) == rp.me();
      for (std::uint32_t d = 0; d < deg; ++d) {
        const auto h = static_cast<std::uint32_t>(grng.next_below(n));
        const double w = grng.next_double(0, 0.1);
        if (mine) {
          nbrs.push_back(h_ids[h]);
          weights.push_back(w);
        }
      }
      if (mine) my_e.push_back(e_ids[i]);
    }
    args.home = my_e;
    args.region_tables = {std::move(my_e), std::move(nbrs)};
    args.f64_tables = {std::move(weights)};
    args.ints = {static_cast<std::int64_t>(args.region_tables[0].size()),
                 deg, steps};
    return args;
  };

  kc.hand = [](RuntimeProc& rp, const KernelArgs& args) {
    // Hand version: maps *and* read pairs hoisted out of the whole time
    // loop (read-only H data under an optimizable protocol); one write pair
    // per node per step remains (it drives the update pushes).
    const auto n_my = static_cast<std::size_t>(args.ints[0]);
    const auto deg = static_cast<std::size_t>(args.ints[1]);
    const auto steps = static_cast<std::size_t>(args.ints[2]);
    std::vector<double*> e(n_my), h(args.region_tables[1].size());
    for (std::size_t i = 0; i < n_my; ++i)
      e[i] = static_cast<double*>(rp.map(args.region_tables[0][i]));
    for (std::size_t k = 0; k < h.size(); ++k) {
      h[k] = static_cast<double*>(rp.map(args.region_tables[1][k]));
      rp.start_read(h[k]);
    }
    for (std::size_t t = 0; t < steps; ++t) {
      for (std::size_t i = 0; i < n_my; ++i) {
        double acc = 0;
        for (std::size_t d = 0; d < deg; ++d) {
          acc += args.f64_tables[0][i * deg + d] * *h[i * deg + d];
          rp.proc().charge(300);
        }
        rp.start_write(e[i]);
        *e[i] = acc;
        rp.end_write(e[i]);
        rp.proc().charge(200);
      }
      rp.ace_barrier(1);
    }
    for (std::size_t k = 0; k < h.size(); ++k) rp.end_read(h[k]);
  };

  kc.checksum = home_sum(1);
  return kc;
}

// ---------------------------------------------------------------------------
// BSC kernel (HomeWrite; LI hoists the block maps out of the product loops)
// ---------------------------------------------------------------------------

KernelCase bsc_case(std::uint32_t scale) {
  KernelCase kc;
  kc.name = "BSC";
  const std::uint32_t bs = 8;
  const std::uint32_t steps = 2 * scale;

  B b;
  b.f.name = "bsc_kernel";
  b.f.table_space = {1};
  const auto n_up = b.param_i(0);
  const auto r_bs = b.param_i(1);
  const auto r_steps = b.param_i(2);
  const auto three = b.ci(3);
  const auto one = b.ci(1);
  const auto two = b.ci(2);
  b.loop(r_steps);
  {
    const auto u = b.loop(n_up);
    {
      const auto u3 = b.mul_i(u, three);
      const auto lik = b.param_region_idx(0, u3);
      const auto ljk = b.param_region_idx(0, b.add_i(u3, one));
      const auto aij = b.param_region_idx(0, b.add_i(u3, two));
      const auto r = b.loop(r_bs);
      {
        const auto rb = b.mul_i(r, r_bs);
        const auto c = b.loop(r_bs);
        {
          const auto cb = b.mul_i(c, r_bs);
          auto acc = b.cf(0.0);
          const auto t = b.loop(r_bs);
          {
            const auto x = b.load(lik, b.add_i(rb, t));
            const auto y = b.load(ljk, b.add_i(cb, t));
            const auto acc2 = b.add_f(acc, b.mul_f(x, y));
            b.f.emit({.op = Op::kCopy, .dst = acc, .a = acc2});
            b.charge(30);
          }
          b.loop_end();
          const auto rc = b.add_i(rb, c);
          const auto old = b.load(aij, rc);
          b.store(aij, rc, b.sub_f(old, acc));
        }
        b.loop_end();
      }
      b.loop_end();
    }
    b.loop_end();
  }
  b.loop_end();
  b.barrier(1);
  kc.program = std::move(b.f);
  kc.space_protocols = {{1, {proto_names::kHomeWrite}}};

  kc.setup = [bs, steps, scale](RuntimeProc& rp) -> KernelArgs {
    const std::uint32_t P = rp.nprocs();
    const std::uint32_t nb = 4 * P;
    const SpaceId mat = rp.new_space(proto_names::kSC);  // space 1
    ACE_CHECK(mat == 1);
    // L blocks are written once at setup and only read during the kernel;
    // A blocks are written only by their owner (the HomeWrite contract).
    const std::vector<RegionId> l_blocks =
        alloc_shared(rp, mat, nb, bs * bs * sizeof(double));
    const std::vector<RegionId> a_blocks =
        alloc_shared(rp, mat, nb, bs * bs * sizeof(double));
    Rng rng(5);
    for (std::uint32_t i = 0; i < nb; ++i) {
      std::vector<double> vals(bs * bs);
      for (auto& v : vals) v = rng.next_double(-1, 1);
      if (rr_owner(i, P) != rp.me()) continue;
      auto* p = static_cast<double*>(rp.map(l_blocks[i]));
      rp.start_write(p);
      std::copy(vals.begin(), vals.end(), p);
      rp.end_write(p);
      rp.unmap(p);
    }
    rp.proc().barrier();
    rp.change_protocol(mat, proto_names::kHomeWrite);

    KernelArgs args;
    std::vector<RegionId> triples;
    for (std::uint32_t i = 0; i < nb; ++i) {
      if (rr_owner(i, P) != rp.me()) continue;
      triples.push_back(l_blocks[(i + 1) % nb]);  // lik (read-only)
      triples.push_back(l_blocks[(i + 3) % nb]);  // ljk (read-only)
      triples.push_back(a_blocks[i]);             // aij (mine)
      args.home.push_back(a_blocks[i]);
    }
    args.region_tables = {std::move(triples)};
    args.ints = {static_cast<std::int64_t>(args.region_tables[0].size() / 3),
                 bs, steps};
    return args;
  };

  kc.hand = [bs](RuntimeProc& rp, const KernelArgs& args) {
    const auto n_up = static_cast<std::size_t>(args.ints[0]);
    const auto steps = static_cast<std::size_t>(args.ints[2]);
    for (std::size_t s = 0; s < steps; ++s) {
      for (std::size_t u = 0; u < n_up; ++u) {
        auto* lik = static_cast<double*>(rp.map(args.region_tables[0][u * 3]));
        auto* ljk =
            static_cast<double*>(rp.map(args.region_tables[0][u * 3 + 1]));
        auto* aij =
            static_cast<double*>(rp.map(args.region_tables[0][u * 3 + 2]));
        rp.start_read(lik);
        rp.start_read(ljk);
        rp.start_write(aij);
        for (std::uint32_t r = 0; r < bs; ++r)
          for (std::uint32_t c = 0; c < bs; ++c) {
            double acc = 0;
            for (std::uint32_t t = 0; t < bs; ++t) {
              acc += lik[r * bs + t] * ljk[c * bs + t];
              rp.proc().charge(30);
            }
            aij[r * bs + c] -= acc;
          }
        rp.end_write(aij);
        rp.end_read(ljk);
        rp.end_read(lik);
        rp.unmap(aij);
        rp.unmap(ljk);
        rp.unmap(lik);
      }
    }
    rp.ace_barrier(1);
  };

  kc.checksum = home_sum(bs * bs);
  return kc;
}

// ---------------------------------------------------------------------------
// Water kernel (HomeWrite positions + PipelinedWrite forces; MC merges the
// per-component accesses)
// ---------------------------------------------------------------------------

KernelCase water_case(std::uint32_t scale) {
  KernelCase kc;
  kc.name = "Water";

  B b;
  b.f.name = "water_kernel";
  b.f.table_space = {1, 1, 2};  // my pos, all pos, all force
  const auto n_my = b.param_i(0);
  const auto n_all = b.param_i(1);
  const auto c0 = b.ci(0);
  const auto c1 = b.ci(1);
  const auto c2 = b.ci(2);
  {
    const auto i = b.loop(n_my);
    const auto my = b.param_region_idx(0, i);
    const auto mx = b.load(my, c0);
    const auto my_y = b.load(my, c1);
    const auto mz = b.load(my, c2);
    {
      const auto j = b.loop(n_all);
      const auto o = b.param_region_idx(1, j);
      const auto ox = b.load(o, c0);
      const auto oy = b.load(o, c1);
      const auto oz = b.load(o, c2);
      const auto dx = b.sub_f(ox, mx);
      const auto dy = b.sub_f(oy, my_y);
      const auto dz = b.sub_f(oz, mz);
      const auto fo = b.param_region_idx(2, j);
      b.store(fo, c0, dx);
      b.store(fo, c1, dy);
      b.store(fo, c2, dz);
      b.charge(400);
      b.loop_end();
    }
    b.loop_end();
  }
  b.barrier(2);
  kc.program = std::move(b.f);
  kc.space_protocols = {{1, {proto_names::kHomeWrite}},
                        {2, {proto_names::kPipelinedWrite}}};

  kc.setup = [scale](RuntimeProc& rp) -> KernelArgs {
    const std::uint32_t P = rp.nprocs();
    const std::uint32_t n = 10 * P * scale;
    const SpaceId pos = rp.new_space(proto_names::kSC);    // space 1
    const SpaceId force = rp.new_space(proto_names::kSC);  // space 2
    ACE_CHECK(pos == 1 && force == 2);
    const std::vector<RegionId> pos_ids = alloc_shared(rp, pos, n, 3 * sizeof(double));
    const std::vector<RegionId> force_ids =
        alloc_shared(rp, force, n, 3 * sizeof(double));
    // Per-processor scratch target for self-contributions: a processor's
    // *own* molecules' contributions would hit its home master copy as raw
    // stores (racing with remote adds); the app accumulates those locally,
    // which the straight-line kernel cannot, so it redirects them to a
    // dummy region excluded from the checksum.
    const std::vector<RegionId> dummy_ids =
        alloc_shared(rp, force, P, 3 * sizeof(double));
    // Positions are multiples of 1/256, so every force below is an exact
    // sum: the homes' PipelinedWrite adds give the same bits in any arrival
    // order, on either backend.
    Rng rng(3);
    const auto coord = [&rng] {
      return std::round(rng.next_double(-2, 2) * 256) / 256;
    };
    for (std::uint32_t i = 0; i < n; ++i) {
      double v[3] = {coord(), coord(), coord()};
      if (rr_owner(i, P) != rp.me()) continue;
      auto* p = static_cast<double*>(rp.map(pos_ids[i]));
      rp.start_write(p);
      for (int k = 0; k < 3; ++k) p[k] = v[k];
      rp.end_write(p);
      rp.unmap(p);
    }
    rp.proc().barrier();
    rp.change_protocol(pos, proto_names::kHomeWrite);
    rp.change_protocol(force, proto_names::kPipelinedWrite);

    KernelArgs args;
    std::vector<RegionId> mine, targets;
    for (std::uint32_t i = 0; i < n; ++i)
      if (rr_owner(i, P) == rp.me()) {
        mine.push_back(pos_ids[i]);
        args.home.push_back(force_ids[i]);
      }
    for (std::uint32_t j = 0; j < n; ++j)
      targets.push_back(rr_owner(j, P) == rp.me() ? dummy_ids[rp.me()]
                                                  : force_ids[j]);
    args.region_tables = {std::move(mine), pos_ids, std::move(targets)};
    args.ints = {static_cast<std::int64_t>(args.region_tables[0].size()),
                 static_cast<std::int64_t>(n)};
    return args;
  };

  kc.hand = [](RuntimeProc& rp, const KernelArgs& args) {
    const auto n_my = static_cast<std::size_t>(args.ints[0]);
    const auto n_all = static_cast<std::size_t>(args.ints[1]);
    // Hand version: all position regions mapped and read-opened once.
    std::vector<double*> pos(n_all), force(n_all);
    for (std::size_t j = 0; j < n_all; ++j) {
      pos[j] = static_cast<double*>(rp.map(args.region_tables[1][j]));
      rp.start_read(pos[j]);
      force[j] = static_cast<double*>(rp.map(args.region_tables[2][j]));
    }
    for (std::size_t i = 0; i < n_my; ++i) {
      double* my = static_cast<double*>(rp.map(args.region_tables[0][i]));
      for (std::size_t j = 0; j < n_all; ++j) {
        rp.start_write(force[j]);
        for (int k = 0; k < 3; ++k) force[j][k] += pos[j][k] - my[k];
        rp.end_write(force[j]);
        rp.proc().charge(400);
      }
      rp.unmap(my);
    }
    for (std::size_t j = 0; j < n_all; ++j) rp.end_read(pos[j]);
    rp.ace_barrier(2);
  };

  // Every pair of molecules with different owners adds d and -d to the
  // forces, so their plain sum is exactly zero; the magnitudes are not.
  kc.checksum = home_sum(3, /*magnitudes=*/true);
  return kc;
}

// ---------------------------------------------------------------------------
// TSP kernel (HomeWrite distance matrix, SC bound; LI hoists the matrix)
// ---------------------------------------------------------------------------

KernelCase tsp_case(std::uint32_t scale) {
  KernelCase kc;
  kc.name = "TSP";
  const std::uint32_t n_cities = 12;

  B b;
  b.f.name = "tsp_kernel";
  b.f.table_space = {1, 0};  // table0: distance matrix, table1: bound (SC)
  const auto n_tours = b.param_i(0);
  const auto r_n = b.param_i(1);
  const auto r_legs = b.param_i(2);
  const auto c0 = b.ci(0);
  const auto c1 = b.ci(1);
  const auto dmat = b.param_region(0, 0);
  const auto bound = b.param_region(1, 0);
  {
    const auto t = b.loop(n_tours);
    const auto base = b.mul_i(t, r_n);
    auto len = b.cf(0.0);
    {
      const auto s = b.loop(r_legs);
      const auto ia = b.f2i(b.param_f(0, b.add_i(base, s)));
      const auto ib = b.f2i(b.param_f(0, b.add_i(b.add_i(base, s), c1)));
      const auto idx = b.add_i(b.mul_i(ia, r_n), ib);
      const auto d = b.load(dmat, idx);
      b.f.emit({.op = Op::kCopy, .dst = len, .a = b.add_f(len, d)});
      b.charge(200);
      b.loop_end();
    }
    // Check the shared bound once per tour (SC: calls survive every pass).
    const auto bv = b.load(bound, c0);
    (void)bv;
    b.loop_end();
  }
  kc.program = std::move(b.f);
  kc.space_protocols = {{1, {proto_names::kHomeWrite}},
                        {0, {proto_names::kSC}}};

  kc.setup = [n_cities, scale](RuntimeProc& rp) -> KernelArgs {
    const SpaceId mat = rp.new_space(proto_names::kSC);  // space 1
    ACE_CHECK(mat == 1);
    RegionId dmat = 0, bound = 0;
    if (rp.me() == 0) {
      dmat = rp.gmalloc(mat, n_cities * n_cities * sizeof(double));
      bound = rp.gmalloc(kDefaultSpace, sizeof(double));
      auto* p = static_cast<double*>(rp.map(dmat));
      rp.start_write(p);
      Rng rng(13);
      for (std::uint32_t i = 0; i < n_cities * n_cities; ++i)
        p[i] = rng.next_double(1, 100);
      rp.end_write(p);
      rp.unmap(p);
    }
    const RegionId dmat_id = rp.bcast_region(dmat, 0);
    const RegionId bound_id = rp.bcast_region(bound, 0);
    rp.change_protocol(mat, proto_names::kHomeWrite);

    KernelArgs args;
    const std::uint32_t n_tours = 30 * scale;
    std::vector<double> tours(static_cast<std::size_t>(n_tours) * n_cities);
    Rng rng(17 + rp.me());
    for (auto& v : tours)
      v = static_cast<double>(rng.next_below(n_cities));
    args.region_tables = {{dmat_id}, {bound_id}};
    args.f64_tables = {std::move(tours)};
    args.ints = {n_tours, n_cities, n_cities - 1};
    if (rp.me() == 0) args.home = {dmat_id};  // the matrix's home
    return args;
  };

  kc.hand = [n_cities](RuntimeProc& rp, const KernelArgs& args) {
    const auto n_tours = static_cast<std::size_t>(args.ints[0]);
    auto* d = static_cast<double*>(rp.map(args.region_tables[0][0]));
    auto* bp = static_cast<double*>(rp.map(args.region_tables[1][0]));
    rp.start_read(d);
    for (std::size_t t = 0; t < n_tours; ++t) {
      double len = 0;
      for (std::uint32_t s = 0; s + 1 < n_cities; ++s) {
        const auto ia = static_cast<std::uint32_t>(
            args.f64_tables[0][t * n_cities + s]);
        const auto ib = static_cast<std::uint32_t>(
            args.f64_tables[0][t * n_cities + s + 1]);
        len += d[ia * n_cities + ib];
        rp.proc().charge(200);
      }
      rp.start_read(bp);  // SC bound check stays per tour
      (void)len;
      rp.end_read(bp);
    }
    rp.end_read(d);
    rp.unmap(d);
    rp.unmap(bp);
  };

  kc.checksum = home_sum(n_cities * n_cities);
  return kc;
}

// ---------------------------------------------------------------------------
// Barnes-Hut kernel (DynamicUpdate bodies + HomeWrite tree; MC merges the
// 4-field tree-node reads)
// ---------------------------------------------------------------------------

KernelCase bh_case(std::uint32_t scale) {
  KernelCase kc;
  kc.name = "Barnes-Hut";
  const std::uint32_t n_visits = 48;

  B b;
  b.f.name = "bh_kernel";
  b.f.table_space = {1, 2};  // bodies, tree nodes
  const auto n_my = b.param_i(0);
  const auto r_visits = b.param_i(1);
  const auto c0 = b.ci(0);
  const auto c1 = b.ci(1);
  const auto c2 = b.ci(2);
  const auto c3 = b.ci(3);
  const auto c4 = b.ci(4);
  const auto c5 = b.ci(5);
  {
    const auto i = b.loop(n_my);
    const auto body = b.param_region_idx(0, i);
    const auto px = b.load(body, c0);
    const auto py = b.load(body, c1);
    const auto pz = b.load(body, c2);
    auto fx = b.cf(0.0);
    auto fy = b.cf(0.0);
    auto fz = b.cf(0.0);
    {
      const auto v = b.loop(r_visits);
      const auto node = b.param_region_idx(1, v);
      const auto cx = b.load(node, c0);
      const auto cy = b.load(node, c1);
      const auto cz = b.load(node, c2);
      const auto m = b.load(node, c3);
      const auto gx = b.mul_f(b.sub_f(cx, px), m);
      const auto gy = b.mul_f(b.sub_f(cy, py), m);
      const auto gz = b.mul_f(b.sub_f(cz, pz), m);
      b.f.emit({.op = Op::kCopy, .dst = fx, .a = b.add_f(fx, gx)});
      b.f.emit({.op = Op::kCopy, .dst = fy, .a = b.add_f(fy, gy)});
      b.f.emit({.op = Op::kCopy, .dst = fz, .a = b.add_f(fz, gz)});
      b.charge(150);
      b.loop_end();
    }
    b.store(body, c3, fx);
    b.store(body, c4, fy);
    b.store(body, c5, fz);
    b.charge(300);
    b.loop_end();
  }
  b.barrier(1);
  kc.program = std::move(b.f);
  kc.space_protocols = {{1, {proto_names::kDynamicUpdate}},
                        {2, {proto_names::kHomeWrite}}};

  kc.setup = [n_visits, scale](RuntimeProc& rp) -> KernelArgs {
    const std::uint32_t P = rp.nprocs();
    const std::uint32_t n = 12 * P * scale;
    const SpaceId bodies = rp.new_space(proto_names::kSC);  // space 1
    const SpaceId tree = rp.new_space(proto_names::kSC);    // space 2
    ACE_CHECK(bodies == 1 && tree == 2);
    const std::vector<RegionId> body_ids =
        alloc_shared(rp, bodies, n, 6 * sizeof(double));
    // Tree nodes all live on processor 0 (it builds the tree).
    std::vector<RegionId> tr(n_visits);
    if (rp.me() == 0)
      for (auto& id : tr) id = rp.gmalloc(tree, 4 * sizeof(double));
    {
      apps::AceApi api(rp);
      apps::share_ids(api, tr, [](std::size_t) { return apps::ProcId{0}; });
    }
    Rng rng(23);
    for (std::uint32_t i = 0; i < n; ++i) {
      double v[3] = {rng.next_double(-1, 1), rng.next_double(-1, 1),
                     rng.next_double(-1, 1)};
      if (rr_owner(i, P) != rp.me()) continue;
      auto* p = static_cast<double*>(rp.map(body_ids[i]));
      rp.start_write(p);
      for (int k = 0; k < 3; ++k) p[k] = v[k];
      rp.end_write(p);
      rp.unmap(p);
    }
    if (rp.me() == 0) {
      Rng trng(29);
      for (auto id : tr) {
        auto* p = static_cast<double*>(rp.map(id));
        rp.start_write(p);
        for (int k = 0; k < 4; ++k) p[k] = trng.next_double(0, 1);
        rp.end_write(p);
        rp.unmap(p);
      }
    }
    rp.proc().barrier();
    rp.change_protocol(bodies, proto_names::kDynamicUpdate);
    rp.change_protocol(tree, proto_names::kHomeWrite);

    KernelArgs args;
    std::vector<RegionId> mine;
    for (std::uint32_t i = 0; i < n; ++i)
      if (rr_owner(i, P) == rp.me()) mine.push_back(body_ids[i]);
    args.home = mine;
    args.region_tables = {std::move(mine), tr};
    args.ints = {static_cast<std::int64_t>(args.region_tables[0].size()),
                 n_visits};
    return args;
  };

  kc.hand = [](RuntimeProc& rp, const KernelArgs& args) {
    const auto n_my = static_cast<std::size_t>(args.ints[0]);
    const auto n_visits = static_cast<std::size_t>(args.ints[1]);
    std::vector<double*> tree(n_visits);
    for (std::size_t v = 0; v < n_visits; ++v) {
      tree[v] = static_cast<double*>(rp.map(args.region_tables[1][v]));
      rp.start_read(tree[v]);
    }
    for (std::size_t i = 0; i < n_my; ++i) {
      auto* body = static_cast<double*>(rp.map(args.region_tables[0][i]));
      rp.start_read(body);
      const double px = body[0], py = body[1], pz = body[2];
      rp.end_read(body);
      double f[3] = {0, 0, 0};
      for (std::size_t v = 0; v < n_visits; ++v) {
        const double m = tree[v][3];
        f[0] += (tree[v][0] - px) * m;
        f[1] += (tree[v][1] - py) * m;
        f[2] += (tree[v][2] - pz) * m;
        rp.proc().charge(150);
      }
      rp.start_write(body);
      for (int k = 0; k < 3; ++k) body[3 + k] = f[k];
      rp.end_write(body);
      rp.unmap(body);
      rp.proc().charge(300);
    }
    for (std::size_t v = 0; v < n_visits; ++v) rp.end_read(tree[v]);
    rp.ace_barrier(1);
  };

  kc.checksum = home_sum(6);
  return kc;
}

}  // namespace

std::vector<KernelCase> table4_cases(std::uint32_t scale) {
  std::vector<KernelCase> cases;
  cases.push_back(bh_case(scale));
  cases.push_back(bsc_case(scale));
  cases.push_back(em3d_case(scale));
  cases.push_back(tsp_case(scale));
  cases.push_back(water_case(scale));
  return cases;
}

}  // namespace ace::ir
