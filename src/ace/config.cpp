#include "ace/config.hpp"

#include <cctype>
#include <map>

#include "ace/registry.hpp"
#include "ace/stack.hpp"

namespace ace {

namespace {

struct Lexer {
  std::string_view text;
  std::size_t pos = 0;
  int line = 1;

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '\n') {
        ++line;
        ++pos;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos;
      } else if (c == '#') {  // comment to end of line
        while (pos < text.size() && text[pos] != '\n') ++pos;
      } else {
        break;
      }
    }
  }

  bool eof() {
    skip_ws();
    return pos >= text.size();
  }

  /// Next token: an identifier, or a single punctuation char.
  std::string_view next() {
    skip_ws();
    if (pos >= text.size()) return {};
    const char c = text[pos];
    if (c == '{' || c == '}' || c == ';') {
      ++pos;
      return text.substr(pos - 1, 1);
    }
    const std::size_t start = pos;
    while (pos < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '_'))
      ++pos;
    return text.substr(start, pos - start);
  }
};

const std::map<std::string_view, unsigned> kHookKeys = {
    {"start_read", kHookStartRead}, {"end_read", kHookEndRead},
    {"start_write", kHookStartWrite}, {"end_write", kHookEndWrite},
    {"barrier", kHookBarrier},      {"lock", kHookLock},
    {"unlock", kHookUnlock},        {"acquire", kHookAcquire},
    {"release", kHookRelease},
};

/// Cost-descriptor keys (the adaptive advisor's registration facts).  The
/// write-policy names are the identifiers a registration script may emit.
const std::map<std::string_view, WritePolicy> kWritePolicies = {
    {"invalidate", WritePolicy::kInvalidate},
    {"push_on_write", WritePolicy::kPushOnWrite},
    {"push_at_barrier", WritePolicy::kPushAtBarrier},
    {"home_fetch", WritePolicy::kHomeFetch},
    {"migrate", WritePolicy::kMigrate},
    {"local_only", WritePolicy::kLocalOnly},
    {"self_downgrade", WritePolicy::kSelfDowngrade},
};

bool fail(ConfigError* err, int line, std::string msg) {
  if (err != nullptr) *err = {std::move(msg), line};
  return false;
}

bool parse_protocol(Lexer& lx, ProtocolInfo* out, ConfigError* err) {
  const std::string_view name = lx.next();
  if (name.empty()) return fail(err, lx.line, "expected protocol name");
  out->name = std::string(name);
  out->hooks = 0;
  out->optimizable = false;
  if (lx.next() != "{") return fail(err, lx.line, "expected '{'");
  while (true) {
    const std::string_view key = lx.next();
    if (key == "}") return true;
    if (key.empty()) return fail(err, lx.line, "unterminated protocol block");
    const std::string_view value = lx.next();
    if (value.empty())
      return fail(err, lx.line,
                  "expected a value for key '" + std::string(key) + "'");
    if (lx.next() != ";") return fail(err, lx.line, "expected ';'");
    if (key == "write_policy") {
      auto it = kWritePolicies.find(value);
      if (it == kWritePolicies.end())
        return fail(err, lx.line,
                    "unknown write_policy '" + std::string(value) + "'");
      out->costs.write_policy = it->second;
      continue;
    }
    if (key == "barrier_rounds") {
      std::uint32_t n = 0;
      for (const char c : value) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
          return fail(err, lx.line,
                      "expected an integer for key 'barrier_rounds'");
        n = n * 10 + static_cast<std::uint32_t>(c - '0');
      }
      if (n == 0)
        return fail(err, lx.line, "barrier_rounds must be at least 1");
      out->costs.barrier_rounds = n;
      continue;
    }
    // Every remaining key takes yes/no.
    if (value != "yes" && value != "no")
      return fail(err, lx.line,
                  "expected yes/no for key '" + std::string(key) + "'");
    const bool on = (value == "yes");
    if (key == "optimizable") {
      out->optimizable = on;
    } else if (key == "merge_rw") {
      out->merge_rw = on;
    } else if (key == "remote_writes") {
      out->costs.remote_writes = on;
    } else if (key == "coherent") {
      out->costs.coherent = on;
    } else if (key == "advisable") {
      out->costs.advisable = on;
    } else {
      auto it = kHookKeys.find(key);
      if (it == kHookKeys.end())
        return fail(err, lx.line, "unknown key '" + std::string(key) + "'");
      if (on) out->hooks |= it->second;
    }
  }
}

/// Parse a `stack Name { fetch ...; write ...; order ...; <declared keys> }`
/// form.  The three stage keys are required and must name known blocks; the
/// combination must be legal (validate_stack).  Protocol-style keys may
/// follow as *declarations* — they are recorded verbatim so the registry and
/// acelint (AL05) can verify them against the derivation; any fact left
/// undeclared is filled in from derive_stack_info.
bool parse_stack(Lexer& lx, ProtocolInfo* out, ConfigError* err) {
  const std::string_view name = lx.next();
  if (name.empty()) return fail(err, lx.line, "expected stack name");
  if (lx.next() != "{") return fail(err, lx.line, "expected '{'");

  StackSpec spec;
  bool have_fetch = false, have_write = false, have_order = false;
  // Declared registration facts (kept separate: absence means "derive").
  unsigned decl_hooks = 0;
  bool any_hook_key = false;
  bool decl_optimizable = false, have_optimizable = false;
  bool decl_merge_rw = false, have_merge_rw = false;
  ProtocolCosts decl_costs;
  bool have_policy = false, have_rounds = false, have_remote = false,
       have_coherent = false, have_advisable = false;

  while (true) {
    const std::string_view key = lx.next();
    if (key == "}") break;
    if (key.empty()) return fail(err, lx.line, "unterminated stack block");
    const std::string_view value = lx.next();
    if (value.empty())
      return fail(err, lx.line,
                  "expected a value for key '" + std::string(key) + "'");
    if (lx.next() != ";") return fail(err, lx.line, "expected ';'");
    if (key == "fetch") {
      FetchBlock b;
      if (!parse_fetch_block(std::string(value), b))
        return fail(err, lx.line,
                    "unknown fetch block '" + std::string(value) + "'");
      if (have_fetch && b != spec.fetch)
        return fail(err, lx.line,
                    "conflicting fetch blocks '" +
                        std::string(to_string(spec.fetch)) + "' vs '" +
                        std::string(value) + "'");
      spec.fetch = b;
      have_fetch = true;
      continue;
    }
    if (key == "write") {
      WriteBlock b;
      if (!parse_write_block(std::string(value), b))
        return fail(err, lx.line,
                    "unknown write block '" + std::string(value) + "'");
      if (have_write && b != spec.write)
        return fail(err, lx.line,
                    "conflicting write blocks '" +
                        std::string(to_string(spec.write)) + "' vs '" +
                        std::string(value) + "'");
      spec.write = b;
      have_write = true;
      continue;
    }
    if (key == "order") {
      OrderBlock b;
      if (!parse_order_block(std::string(value), b))
        return fail(err, lx.line,
                    "unknown order block '" + std::string(value) + "'");
      if (have_order && b != spec.order)
        return fail(err, lx.line,
                    "conflicting order blocks '" +
                        std::string(to_string(spec.order)) + "' vs '" +
                        std::string(value) + "'");
      spec.order = b;
      have_order = true;
      continue;
    }
    if (key == "write_policy") {
      auto it = kWritePolicies.find(value);
      if (it == kWritePolicies.end())
        return fail(err, lx.line,
                    "unknown write_policy '" + std::string(value) + "'");
      decl_costs.write_policy = it->second;
      have_policy = true;
      continue;
    }
    if (key == "barrier_rounds") {
      std::uint32_t n = 0;
      for (const char c : value) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
          return fail(err, lx.line,
                      "expected an integer for key 'barrier_rounds'");
        n = n * 10 + static_cast<std::uint32_t>(c - '0');
      }
      if (n == 0)
        return fail(err, lx.line, "barrier_rounds must be at least 1");
      decl_costs.barrier_rounds = n;
      have_rounds = true;
      continue;
    }
    if (value != "yes" && value != "no")
      return fail(err, lx.line,
                  "expected yes/no for key '" + std::string(key) + "'");
    const bool on = (value == "yes");
    if (key == "optimizable") {
      decl_optimizable = on;
      have_optimizable = true;
    } else if (key == "merge_rw") {
      decl_merge_rw = on;
      have_merge_rw = true;
    } else if (key == "remote_writes") {
      decl_costs.remote_writes = on;
      have_remote = true;
    } else if (key == "coherent") {
      decl_costs.coherent = on;
      have_coherent = true;
    } else if (key == "advisable") {
      decl_costs.advisable = on;
      have_advisable = true;
    } else {
      auto it = kHookKeys.find(key);
      if (it == kHookKeys.end())
        return fail(err, lx.line, "unknown key '" + std::string(key) + "'");
      any_hook_key = true;
      if (on) decl_hooks |= it->second;
    }
  }

  if (!have_fetch)
    return fail(err, lx.line,
                "stack '" + std::string(name) + "' missing stage 'fetch'");
  if (!have_write)
    return fail(err, lx.line,
                "stack '" + std::string(name) + "' missing stage 'write'");
  if (!have_order)
    return fail(err, lx.line,
                "stack '" + std::string(name) + "' missing stage 'order'");
  const std::string verr = validate_stack(spec);
  if (!verr.empty()) return fail(err, lx.line, verr);

  *out = derive_stack_info(std::string(name), spec);
  // Declared facts win over derived ones in the parse result — mismatches
  // are for the registry's cross-check and acelint AL05 to catch, not for
  // the parser to silently repair.
  if (any_hook_key) out->hooks = decl_hooks;
  if (have_optimizable) out->optimizable = decl_optimizable;
  if (have_merge_rw) out->merge_rw = decl_merge_rw;
  if (have_policy) out->costs.write_policy = decl_costs.write_policy;
  if (have_rounds) out->costs.barrier_rounds = decl_costs.barrier_rounds;
  if (have_remote) out->costs.remote_writes = decl_costs.remote_writes;
  if (have_coherent) out->costs.coherent = decl_costs.coherent;
  if (have_advisable) out->costs.advisable = decl_costs.advisable;
  return true;
}

}  // namespace

const char* to_string(WritePolicy p) {
  for (const auto& [name, policy] : kWritePolicies)
    if (policy == p) return name.data();
  return "?";
}

std::vector<ProtocolInfo> parse_config(std::string_view text,
                                       ConfigError* err) {
  std::vector<ProtocolInfo> out;
  Lexer lx{text};
  while (!lx.eof()) {
    const std::string_view kw = lx.next();
    if (kw != "protocol" && kw != "stack") {
      fail(err, lx.line,
           "expected 'protocol' or 'stack', got '" + std::string(kw) + "'");
      return {};
    }
    ProtocolInfo info;
    if (kw == "stack") {
      if (!parse_stack(lx, &info, err)) return {};
    } else if (!parse_protocol(lx, &info, err)) {
      return {};
    }
    for (const auto& existing : out)
      if (existing.name == info.name) {
        fail(err, lx.line, "duplicate protocol '" + info.name + "'");
        return {};
      }
    out.push_back(std::move(info));
  }
  return out;
}

std::string render_config(const std::vector<ProtocolInfo>& infos) {
  std::string out;
  for (const auto& info : infos) {
    if (info.composed) {
      out += "stack " + info.name + " {\n";
      out += "  fetch ";
      out += to_string(info.stack.fetch);
      out += "; write ";
      out += to_string(info.stack.write);
      out += "; order ";
      out += to_string(info.stack.order);
      out += ";\n";
    } else {
      out += "protocol " + info.name + " {\n";
    }
    for (const auto& [key, bit] : kHookKeys) {
      out += "  " + std::string(key) + " ";
      out += (info.hooks & bit) ? "yes" : "no";
      out += ";\n";
    }
    out += "  optimizable ";
    out += info.optimizable ? "yes" : "no";
    out += ";\n  merge_rw ";
    out += info.merge_rw ? "yes" : "no";
    out += ";\n  write_policy ";
    out += to_string(info.costs.write_policy);
    out += "; barrier_rounds " + std::to_string(info.costs.barrier_rounds);
    out += "; remote_writes ";
    out += info.costs.remote_writes ? "yes" : "no";
    out += ";\n  coherent ";
    out += info.costs.coherent ? "yes" : "no";
    out += "; advisable ";
    out += info.costs.advisable ? "yes" : "no";
    out += ";\n}\n";
  }
  return out;
}

std::string default_config_text() {
  // What each built-in protocol's registration script emits; the root
  // protocols.cfg is a byte-identical copy (Config.ShippedCfgFileMatches-
  // DefaultText).  Composed protocols are declared as `stack` forms: the
  // fetch/write/order blocks are the source of truth, and the spelled-out
  // hook bits and cost descriptor are *declarations* verified against the
  // derivation (Registry::with_builtins + acelint AL05).  Bespoke
  // `protocol` entries must agree with their class's static_info(), checked
  // at Registry::with_builtins time.
  return R"(# Ace system configuration file — shipped protocol library.
# Generated by the protocol registration scripts (paper Figure 1).
# write_policy/barrier_rounds/remote_writes/coherent/advisable are the
# cost-descriptor facts the adaptive advisor (src/adapt) consumes.
# `stack` entries compose the protocol from blocks (src/ace/stack.hpp);
# their declared facts below must match what the blocks derive.

stack SC {
  fetch directory; write exclusive; order plain;
  start_read yes; end_read yes; start_write yes; end_write yes;
  barrier yes; lock yes; unlock yes;
  optimizable no;
  write_policy invalidate; barrier_rounds 1; remote_writes yes;
  coherent yes; advisable yes;
}

stack Null {
  fetch none; write local; order plain;
  start_read no; end_read no; start_write no; end_write no;
  barrier yes; lock yes; unlock yes;
  optimizable yes;
  write_policy local_only; barrier_rounds 1; remote_writes yes;
  coherent no; advisable no;
}

stack DynamicUpdate {
  fetch valid_bit; write push_on_write; order drain_two;
  start_read yes; end_read no; start_write yes; end_write yes;
  barrier yes; lock yes; unlock yes;
  optimizable yes;
  write_policy push_on_write; barrier_rounds 2; remote_writes yes;
  coherent yes; advisable yes;
}

stack StaticUpdate {
  fetch valid_bit; write mark_dirty; order push_dirty;
  start_read yes; end_read no; start_write no; end_write yes;
  barrier yes; lock yes; unlock yes;
  optimizable yes; merge_rw yes;
  write_policy push_at_barrier; barrier_rounds 1; remote_writes no;
  coherent yes; advisable yes;
}

stack Migratory {
  fetch owner; write migrate; order plain;
  start_read yes; end_read yes; start_write yes; end_write yes;
  barrier yes; lock yes; unlock yes;
  optimizable no;
  write_policy migrate; barrier_rounds 1; remote_writes yes;
  coherent yes; advisable yes;
}

stack HomeWrite {
  fetch valid_bit; write home_only; order drop_remote;
  start_read yes; end_read no; start_write no; end_write yes;
  barrier yes; lock yes; unlock yes;
  optimizable yes; merge_rw yes;
  write_policy home_fetch; barrier_rounds 1; remote_writes no;
  coherent yes; advisable yes;
}

stack StaticInvalidate {
  fetch valid_bit; write mark_dirty; order inval_dirty;
  start_read yes; end_read no; start_write no; end_write yes;
  barrier yes; lock yes; unlock yes;
  optimizable yes; merge_rw yes;
  write_policy invalidate; barrier_rounds 1; remote_writes no;
  coherent yes; advisable yes;
}

stack WriteThrough {
  fetch valid_bit; write write_through; order drop_remote;
  start_read yes; end_read no; start_write yes; end_write yes;
  barrier yes; lock yes; unlock yes;
  optimizable yes;
  write_policy home_fetch; barrier_rounds 1; remote_writes yes;
  coherent yes; advisable yes;
}

stack SelfInvalidate {
  fetch valid_bit; write write_through; order self_invalidate;
  start_read yes; end_read no; start_write yes; end_write yes;
  barrier yes; lock yes; unlock yes; acquire yes; release yes;
  optimizable yes;
  write_policy home_fetch; barrier_rounds 1; remote_writes yes;
  coherent yes; advisable yes;
}

stack SelfInvalidateDowngrade {
  fetch valid_bit; write downgrade_on_release; order self_invalidate;
  start_read yes; end_read no; start_write yes; end_write yes;
  barrier yes; lock yes; unlock yes; acquire yes; release yes;
  optimizable yes;
  write_policy self_downgrade; barrier_rounds 1; remote_writes yes;
  coherent yes; advisable yes;
}

protocol PipelinedWrite {
  start_read yes; end_read no; start_write yes; end_write yes;
  barrier yes; lock yes; unlock yes;
  optimizable yes;
  write_policy push_at_barrier; barrier_rounds 1; remote_writes yes;
  coherent yes; advisable no;
}

protocol Counter {
  start_read no; end_read no; start_write yes; end_write no;
  barrier yes; lock yes; unlock yes;
  optimizable no;
  write_policy home_fetch; barrier_rounds 1; remote_writes yes;
  coherent yes; advisable no;
}

protocol RaceCheck {
  start_read yes; end_read yes; start_write yes; end_write yes;
  barrier yes; lock yes; unlock yes;
  optimizable no;
  write_policy invalidate; barrier_rounds 1; remote_writes yes;
  coherent yes; advisable no;
}
)";
}

}  // namespace ace
