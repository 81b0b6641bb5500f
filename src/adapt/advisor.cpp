#include "adapt/advisor.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "adapt/cost_model.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace ace::adapt {

Advisor::Advisor(RuntimeProc& rp, SpaceId space, AdvisorOptions opts)
    : rp_(rp), space_(space), opts_(std::move(opts)) {
  opts_.min_window = std::max<std::uint32_t>(opts_.min_window, 1);
  opts_.max_window = std::max(opts_.max_window, opts_.min_window);
  if (opts_.hysteresis < 1.0) opts_.hysteresis = 1.0;
  for (const std::string& c : opts_.candidates)
    ACE_CHECK_MSG(rp_.runtime().registry().contains(c),
                  "advisor candidate is not a registered protocol");
  window_ = opts_.min_window;
  reset_window();
}

void Advisor::on_read(Region& r) {
  reads_ += 1;
  if (!r.is_home()) remote_reads_ += 1;
  cur_run_region_ = dsm::kInvalidRegion;  // a read breaks the write run
  Touched& t = touched_[r.id()];
  t.size = r.size();
  t.home = r.is_home();
  if (!r.is_home()) t.remote_read = true;
}

void Advisor::on_write(Region& r) {
  writes_ += 1;
  if (!r.is_home()) remote_writes_ += 1;
  if (r.id() != cur_run_region_) {
    write_runs_ += 1;
    cur_run_region_ = r.id();
  }
  Touched& t = touched_[r.id()];
  t.size = r.size();
  t.home = r.is_home();
}

void Advisor::on_barrier(SpaceId) {
  total_epochs_ += 1;
  epoch_in_window_ += 1;
  cur_run_region_ = dsm::kInvalidRegion;  // barriers end write runs
  if (epoch_in_window_ >= window_) decide();
}

void Advisor::on_protocol_change(SpaceId, const std::string&) {
  // A fresh counter segment just opened (whether we switched or the app
  // did): re-baseline the delta counters and the run tracker.  Window
  // accumulation otherwise continues.
  const obs::SpaceMetrics& m = rp_.smetrics(space_);
  base_dsm_ = m.dsm;
  base_msgs_ = m.msgs;
  base_bytes_ = m.bytes;
  cur_run_region_ = dsm::kInvalidRegion;
}

Signature Advisor::local_signature() const {
  Signature s;
  s.reads = reads_;
  s.writes = writes_;
  s.remote_reads = remote_reads_;
  s.remote_writes = remote_writes_;
  const obs::SpaceMetrics& m =
      const_cast<RuntimeProc&>(rp_).smetrics(space_);
  s.read_misses = m.dsm.read_misses - base_dsm_.read_misses;
  s.write_misses = m.dsm.write_misses - base_dsm_.write_misses;
  s.write_runs = write_runs_;
  s.writer_procs = writes_ > 0 ? 1 : 0;
  s.reader_procs = reads_ > 0 ? 1 : 0;
  s.msgs = m.msgs - base_msgs_;
  s.bytes = m.bytes - base_bytes_;
  s.epochs = epoch_in_window_;
  s.regions = touched_.size();
  for (const auto& [id, t] : touched_) {
    s.region_bytes += t.size;
    if (t.remote_read) s.sharer_pairs += 1;
    if (t.home) s.home_regions += 1;
  }
  s.window_ns =
      const_cast<RuntimeProc&>(rp_).proc().vclock_ns() - window_start_ns_;
  return s;
}

void Advisor::decide() {
  // Reduce this processor's window sample into the machine-wide signature.
  // Order-free integer reductions mean every processor lands on the same
  // Signature, so everything below is replicated deterministically.
  Signature sig = local_signature();
  std::uint64_t sum[kSumFields], mx[kMaxFields];
  pack(sig, sum, mx);
  rp_.allreduce_u64(sum, kSumFields, RuntimeProc::ReduceOp::kSum);
  rp_.allreduce_u64(mx, kMaxFields, RuntimeProc::ReduceOp::kMax);
  unpack(sig, sum, mx);

  const Registry& reg = rp_.runtime().registry();
  const std::string current = rp_.space(space_).protocol_name();

  // Candidate set: explicit list, or every advisable registered protocol.
  // With the block-composed library this enumerates the legal stack space:
  // every legal fetch/write/order combination registers as a stack (including
  // ones beyond the paper's nine protocols, e.g. StaticInvalidate,
  // WriteThrough), and each advisable one enters here on equal footing with
  // the bespoke protocols.  Explicitly named protocols bypass the advisable/coherent
  // gate (that is how Null is opted in), never the remote-write safety gate.
  std::vector<std::string> names = opts_.candidates;
  if (names.empty())
    for (const std::string& n : reg.names())
      if (reg.info(n).costs.advisable) names.push_back(n);
  if (std::find(names.begin(), names.end(), current) == names.end())
    names.push_back(current);  // the incumbent is always scored

  Decision d;
  d.epoch = total_epochs_;
  d.window = epoch_in_window_;
  d.current = current;
  d.sig = sig;
  d.measured_ns = sig.window_ns;

  // Descriptor-class pruning: predict_ns discriminates only on the
  // (write_policy, barrier_rounds) pair, so candidates in the same class
  // share one prediction.  The enumerated stack space is larger than the
  // class space (SC and StaticInvalidate are both invalidate/1; HomeWrite
  // and WriteThrough both home_fetch/1), so price each class once and let
  // ties resolve to the alphabetically-earlier candidate via the strict
  // `<` below — deterministic, and it keeps the incumbent on a class tie.
  std::map<std::pair<WritePolicy, std::uint32_t>, double> class_ns;
  double cur_pred = 0;
  std::size_t best = SIZE_MAX;
  for (const std::string& n : names) {
    const ProtocolInfo& info = reg.info(n);
    CandidateCost cc;
    cc.protocol = n;
    cc.feasible = feasible(info.costs, sig);
    const auto cls =
        std::make_pair(info.costs.write_policy, info.costs.barrier_rounds);
    auto it = class_ns.find(cls);
    if (it == class_ns.end())
      it = class_ns
               .emplace(cls, predict_ns(info.costs, sig, rp_.cost(),
                                        rp_.nprocs()))
               .first;
    cc.predicted_ns = it->second;
    if (n == current) cur_pred = cc.predicted_ns;
    if (cc.feasible &&
        (best == SIZE_MAX || cc.predicted_ns < d.costs[best].predicted_ns))
      best = d.costs.size();
    d.costs.push_back(std::move(cc));
  }

  const double sw_cost = switch_cost_ns(sig, rp_.cost(), rp_.nprocs());
  d.chosen = best == SIZE_MAX ? current : d.costs[best].protocol;
  if (sig.writer_procs == 0 || sig.reader_procs == 0) {
    // One-sided windows (an init phase that only writes, or nobody writing
    // at all) make every coherence term degenerate — the candidates tie at
    // zero and the "winner" is an artifact.  Wait for a window that shows
    // both producers and consumers.
    d.chosen = current;
    d.reason = "insufficient-signal";
  } else if (d.chosen == current) {
    d.reason = "hold";
  } else if (cooldown_left_ > 0) {
    d.reason = "cooldown";
  } else if (cur_pred <=
             opts_.hysteresis * d.costs[best].predicted_ns + sw_cost) {
    d.reason = "hysteresis";  // challenger wins, but not by enough
  } else if (!opts_.execute) {
    d.reason = "advise-only";
  } else {
    d.reason = "switch";
    d.switched = true;
  }
  if (cooldown_left_ > 0) cooldown_left_ -= 1;

  const std::string chosen = d.chosen;
  const bool switched = d.switched;
  decisions_.push_back(std::move(d));
  rp_.proc().trace(obs::EventKind::kAdvise, rp_.proc().vclock_ns(), space_,
                   switched ? 1 : 0, decisions_.size() - 1);

  if (switched) {
    switches_ += 1;
    window_ = opts_.min_window;
    cooldown_left_ = opts_.cooldown;
    // Collective: every processor took the identical branch.  The change
    // re-baselines the segment counters via on_protocol_change.
    rp_.change_protocol(space_, chosen);
  } else if (decisions_.back().reason == "insufficient-signal") {
    // Keep sampling at the minimum window until real evidence shows up —
    // backing off here would just stretch the uninformed warmup.
    window_ = opts_.min_window;
  } else {
    window_ = std::min(window_ * 2, opts_.max_window);
  }
  reset_window();
}

void Advisor::reset_window() {
  reads_ = writes_ = 0;
  remote_reads_ = remote_writes_ = 0;
  write_runs_ = 0;
  cur_run_region_ = dsm::kInvalidRegion;
  touched_.clear();
  epoch_in_window_ = 0;
  window_start_ns_ = rp_.proc().vclock_ns();
  const obs::SpaceMetrics& m = rp_.smetrics(space_);
  base_dsm_ = m.dsm;
  base_msgs_ = m.msgs;
  base_bytes_ = m.bytes;
}

SpaceId new_space(RuntimeProc& rp, const SpaceOptions& opts) {
  const SpaceId s = rp.new_space(opts.protocol);
  switch (opts.advisor) {
    case SpaceOptions::Advisor::kOff:
      break;
    case SpaceOptions::Advisor::kAdvise:
      advise(rp, s, opts.advisor_options);
      break;
    case SpaceOptions::Advisor::kAuto:
      attach(rp, s, opts.advisor_options);
      break;
  }
  return s;
}

SpaceId auto_space(RuntimeProc& rp, const std::string& initial_protocol,
                   AdvisorOptions opts) {
  return new_space(rp, {.protocol = initial_protocol,
                        .advisor = SpaceOptions::Advisor::kAuto,
                        .advisor_options = std::move(opts)});
}

Advisor* attach(RuntimeProc& rp, SpaceId space, AdvisorOptions opts) {
  SpaceObserver* o = rp.attach_observer(
      space, std::make_unique<Advisor>(rp, space, std::move(opts)));
  return static_cast<Advisor*>(o);
}

Advisor* advise(RuntimeProc& rp, SpaceId space, AdvisorOptions opts) {
  opts.execute = false;
  return attach(rp, space, std::move(opts));
}

Advisor* find_advisor(Runtime& rt, SpaceId space, ProcId proc) {
  RuntimeProc* rp = rt.rproc(proc);
  if (rp == nullptr) return nullptr;
  return dynamic_cast<Advisor*>(rp->observer(space));
}

std::vector<SpaceDecisions> collect_decisions(Runtime& rt) {
  std::vector<SpaceDecisions> out;
  RuntimeProc* rp = rt.rproc(0);
  if (rp == nullptr) return out;
  for (SpaceId s = 0; s < rp->num_spaces(); ++s)
    if (Advisor* a = find_advisor(rt, s)) {
      SpaceDecisions sd;
      sd.space = s;
      sd.execute = a->options().execute;
      sd.nprocs = rp->nprocs();
      sd.decisions = a->decisions();
      out.push_back(std::move(sd));
    }
  return out;
}

namespace {

void write_signature(obs::JsonWriter& w, const Signature& s) {
  w.begin_object();
  w.kv("reads", s.reads);
  w.kv("writes", s.writes);
  w.kv("remote_reads", s.remote_reads);
  w.kv("remote_writes", s.remote_writes);
  w.kv("read_misses", s.read_misses);
  w.kv("write_misses", s.write_misses);
  w.kv("write_runs", s.write_runs);
  w.kv("writer_procs", s.writer_procs);
  w.kv("reader_procs", s.reader_procs);
  w.kv("msgs", s.msgs);
  w.kv("bytes", s.bytes);
  w.kv("sharer_pairs", s.sharer_pairs);
  w.kv("home_regions", s.home_regions);
  w.kv("epochs", s.epochs);
  w.kv("regions", s.regions);
  w.kv("region_bytes", s.region_bytes);
  w.kv("window_ns", s.window_ns);
  w.end_object();
}

}  // namespace

std::string report_json(const std::string& tag,
                        const std::vector<SpaceDecisions>& spaces) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "ace-advisor-v1");
  w.kv("tag", tag);
  w.key("spaces");
  w.begin_array();
  for (const SpaceDecisions& sd : spaces) {
    w.begin_object();
    w.kv("space", static_cast<std::uint64_t>(sd.space));
    w.kv("mode", sd.execute ? "auto" : "advise");
    w.kv("procs", static_cast<std::uint64_t>(sd.nprocs));
    w.key("decisions");
    w.begin_array();
    for (const Decision& d : sd.decisions) {
      w.begin_object();
      w.kv("epoch", d.epoch);
      w.kv("window", static_cast<std::uint64_t>(d.window));
      w.kv("current", d.current);
      w.kv("chosen", d.chosen);
      w.kv("reason", d.reason);
      w.kv("switched", d.switched);
      w.kv("measured_ns", d.measured_ns);
      w.key("signature");
      write_signature(w, d.sig);
      w.key("costs");
      w.begin_array();
      for (const CandidateCost& c : d.costs) {
        w.begin_object();
        w.kv("protocol", c.protocol);
        w.kv("predicted_ns", c.predicted_ns);
        w.kv("feasible", c.feasible);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

std::string write_report(const std::string& tag,
                         const std::vector<SpaceDecisions>& spaces,
                         const std::string& dir) {
  const std::string path = dir + "/ADVISOR_" + tag + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return {};
  const std::string json = report_json(tag, spaces);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return (std::fclose(f) == 0 && ok) ? path : std::string();
}

}  // namespace ace::adapt

namespace ace {

SpaceId Ace_NewSpace(const SpaceOptions& opts) {
  return adapt::new_space(Runtime::cur(), opts);
}

}  // namespace ace
