#include "ace/registry.hpp"

#include "ace/config.hpp"
#include "ace/stack.hpp"
#include "protocols/composed.hpp"
#include "protocols/counter.hpp"
#include "protocols/pipelined_write.hpp"
#include "protocols/race_check.hpp"

namespace ace {

void Registry::add(ProtocolInfo info, Factory factory) {
  ACE_CHECK_MSG(!info.name.empty(), "protocol must have a name");
  const std::string name = info.name;  // key must outlive the move below
  const auto [it, inserted] =
      entries_.emplace(name, Entry{std::move(info), std::move(factory)});
  ACE_CHECK_MSG(inserted, "duplicate protocol registration");
  (void)it;
}

void Registry::add_stack(const std::string& name, const StackSpec& stack) {
  add_composed(derive_stack_info(name, stack));
}

void Registry::add_composed(ProtocolInfo info) {
  ACE_CHECK_MSG(info.composed, "add_composed needs a composed ProtocolInfo");
  // The factory shares one immutable ProtocolInfo across every instance
  // (one per (space, processor)); the shared_ptr keeps it alive for as long
  // as any instance or registry copy is.
  auto shared = std::make_shared<const ProtocolInfo>(std::move(info));
  add(*shared, [shared](RuntimeProc& rp, std::uint32_t space_id) {
    return std::make_unique<protocols::ComposedProtocol>(rp, space_id,
                                                         shared);
  });
}

bool Registry::contains(const std::string& name) const {
  return entries_.count(name) != 0;
}

const ProtocolInfo& Registry::info(const std::string& name) const {
  auto it = entries_.find(name);
  ACE_CHECK_MSG(it != entries_.end(), "unknown protocol name");
  return it->second.info;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

std::unique_ptr<Protocol> Registry::create(const std::string& name,
                                           RuntimeProc& rp,
                                           std::uint32_t space_id) const {
  auto it = entries_.find(name);
  ACE_CHECK_MSG(it != entries_.end(), "unknown protocol name");
  return it->second.factory(rp, space_id);
}

namespace {

/// The genuinely semantic protocols stay bespoke (their hooks change the
/// *meaning* of accesses, not just their cost) but register through the same
/// config-driven path: the cfg entry must exist and agree with static_info.
struct BespokeEntry {
  const char* name;
  const ProtocolInfo& (*static_info)();
  Registry::Factory factory;
};

template <class P>
BespokeEntry bespoke(const char* name) {
  return {name, &P::static_info,
          [](RuntimeProc& rp, std::uint32_t space_id)
              -> std::unique_ptr<Protocol> {
            return std::make_unique<P>(rp, space_id);
          }};
}

}  // namespace

Registry Registry::with_builtins() {
  // The system configuration file drives registration: `stack` entries
  // synthesize a ComposedProtocol factory (after verifying their declared
  // facts against the block derivation), `protocol` entries look up the
  // bespoke implementation table.
  const BespokeEntry bespokes[] = {
      bespoke<protocols::PipelinedWrite>(proto_names::kPipelinedWrite),
      bespoke<protocols::CounterProtocol>(proto_names::kCounter),
      bespoke<protocols::RaceCheck>(proto_names::kRaceCheck),
  };

  Registry reg;
  ConfigError err;
  const auto cfg = parse_config(default_config_text(), &err);
  ACE_CHECK_MSG(!cfg.empty(),
                ("default protocols.cfg failed to parse: " + err.message).c_str());
  for (const auto& info : cfg) {
    if (info.composed) {
      // A declared fact that disagrees with the derivation means the config
      // lies about what the blocks do — the direct-call pass would delete
      // hooks that are not null, or the advisor would price a fiction.
      const ProtocolInfo derived = derive_stack_info(info.name, info.stack);
      ACE_CHECK_MSG(info.hooks == derived.hooks &&
                        info.optimizable == derived.optimizable &&
                        info.merge_rw == derived.merge_rw,
                    ("protocols.cfg stack '" + info.name +
                     "' declares hooks the blocks do not derive")
                        .c_str());
      ACE_CHECK_MSG(info.costs == derived.costs,
                    ("protocols.cfg stack '" + info.name +
                     "' declares costs the blocks do not derive")
                        .c_str());
      reg.add_composed(derived);
      continue;
    }
    const BespokeEntry* found = nullptr;
    for (const auto& b : bespokes)
      if (info.name == b.name) found = &b;
    ACE_CHECK_MSG(found != nullptr,
                  ("protocols.cfg protocol '" + info.name +
                   "' has no bespoke implementation")
                      .c_str());
    const ProtocolInfo& builtin = found->static_info();
    ACE_CHECK_MSG(builtin.hooks == info.hooks &&
                      builtin.optimizable == info.optimizable &&
                      builtin.merge_rw == info.merge_rw,
                  "protocols.cfg disagrees with a builtin's static_info");
    ACE_CHECK_MSG(builtin.costs == info.costs,
                  "protocols.cfg cost descriptor disagrees with a builtin's "
                  "static_info");
    reg.add(builtin, found->factory);
  }

  // Every shipped protocol must be present under its canonical name — a cfg
  // edit cannot silently drop one.
  for (const char* name :
       {proto_names::kSC, proto_names::kNull, proto_names::kDynamicUpdate,
        proto_names::kStaticUpdate, proto_names::kMigratory,
        proto_names::kHomeWrite, proto_names::kPipelinedWrite,
        proto_names::kCounter, proto_names::kRaceCheck,
        proto_names::kStaticInvalidate, proto_names::kWriteThrough,
        proto_names::kSelfInvalidate, proto_names::kSelfInvalidateDowngrade})
    ACE_CHECK_MSG(reg.contains(name),
                  (std::string("shipped protocol missing from cfg: ") + name)
                      .c_str());
  return reg;
}

}  // namespace ace
