#include "ace/config.hpp"

#include <cctype>
#include <map>
#include <optional>
#include <type_traits>

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

/// Read one `key value;` entry of a `form` block into `key`/`value`, or
/// the closing brace (`key` is then "}").
bool next_entry(Lexer& lx, const char* form, std::string_view& key,
                std::string_view& value, ConfigError* err) {
  key = lx.next();
  if (key == "}") return true;
  if (key.empty())
    return fail(err, lx.line, std::string("unterminated ") + form + " block");
  value = lx.next();
  if (value.empty())
    return fail(err, lx.line,
                "expected a value for key '" + std::string(key) + "'");
  if (lx.next() != ";") return fail(err, lx.line, "expected ';'");
  return true;
}

/// The registration facts a `protocol` or `stack` block names; a fact the
/// block leaves out stays empty.
struct Facts {
  std::optional<unsigned> hooks;
  std::optional<bool> optimizable, merge_rw, remote_writes, coherent,
      advisable;
  std::optional<WritePolicy> write_policy;
  std::optional<std::uint32_t> barrier_rounds;

  /// Overwrite the named facts in `out`.
  void apply(ProtocolInfo& out) const {
    if (hooks) out.hooks = *hooks;
    if (optimizable) out.optimizable = *optimizable;
    if (merge_rw) out.merge_rw = *merge_rw;
    if (write_policy) out.costs.write_policy = *write_policy;
    if (barrier_rounds) out.costs.barrier_rounds = *barrier_rounds;
    if (remote_writes) out.costs.remote_writes = *remote_writes;
    if (coherent) out.costs.coherent = *coherent;
    if (advisable) out.costs.advisable = *advisable;
  }
};

/// Parse one registration key (a hook, a yes/no fact, `write_policy` or
/// `barrier_rounds`) into `f`; errors are reported on `line`.
bool parse_fact(std::string_view key, std::string_view value, int line,
                Facts& f, ConfigError* err) {
  if (key == "write_policy") {
    auto it = kWritePolicies.find(value);
    if (it == kWritePolicies.end())
      return fail(err, line,
                  "unknown write_policy '" + std::string(value) + "'");
    f.write_policy = it->second;
    return true;
  }
  if (key == "barrier_rounds") {
    std::uint32_t n = 0;
    for (const char c : value) {
      if (!std::isdigit(static_cast<unsigned char>(c)))
        return fail(err, line, "expected an integer for key 'barrier_rounds'");
      n = n * 10 + static_cast<std::uint32_t>(c - '0');
    }
    if (n == 0) return fail(err, line, "barrier_rounds must be at least 1");
    f.barrier_rounds = n;
    return true;
  }
  // Every remaining key takes yes/no.
  if (value != "yes" && value != "no")
    return fail(err, line,
                "expected yes/no for key '" + std::string(key) + "'");
  const bool on = (value == "yes");
  if (key == "optimizable") {
    f.optimizable = on;
  } else if (key == "merge_rw") {
    f.merge_rw = on;
  } else if (key == "remote_writes") {
    f.remote_writes = on;
  } else if (key == "coherent") {
    f.coherent = on;
  } else if (key == "advisable") {
    f.advisable = on;
  } else {
    auto it = kHookKeys.find(key);
    if (it == kHookKeys.end())
      return fail(err, line, "unknown key '" + std::string(key) + "'");
    // A block that names any hook names its whole hook set.
    f.hooks = f.hooks.value_or(0) | (on ? it->second : 0);
  }
  return true;
}

/// Parse a `protocol Name { <registration keys> }` form.  Hooks not named
/// are null and the protocol is not optimizable unless it says so.
bool parse_protocol(Lexer& lx, ProtocolInfo* out, ConfigError* err) {
  const std::string_view name = lx.next();
  if (name.empty()) return fail(err, lx.line, "expected protocol name");
  if (lx.next() != "{") return fail(err, lx.line, "expected '{'");
  Facts decl;
  std::string_view key, value;
  while (true) {
    if (!next_entry(lx, "protocol", key, value, err)) return false;
    if (key == "}") break;
    if (!parse_fact(key, value, lx.line, decl, err)) return false;
  }
  *out = ProtocolInfo{};
  out->name = std::string(name);
  out->hooks = 0;
  decl.apply(*out);
  return true;
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
  Facts decl;  // declared registration facts: absence means "derive"
  std::string_view key, value;
  // One stage key: `parse` names the block, which may repeat but not change.
  const auto stage = [&](const char* what, auto parse, auto& slot,
                         bool& have) {
    std::remove_reference_t<decltype(slot)> b;
    if (!parse(std::string(value), b))
      return fail(err, lx.line, std::string("unknown ") + what + " block '" +
                                    std::string(value) + "'");
    if (have && b != slot)
      return fail(err, lx.line,
                  std::string("conflicting ") + what + " blocks '" +
                      to_string(slot) + "' vs '" + std::string(value) + "'");
    slot = b;
    have = true;
    return true;
  };

  while (true) {
    if (!next_entry(lx, "stack", key, value, err)) return false;
    if (key == "}") break;
    bool ok;
    if (key == "fetch")
      ok = stage("fetch", parse_fetch_block, spec.fetch, have_fetch);
    else if (key == "write")
      ok = stage("write", parse_write_block, spec.write, have_write);
    else if (key == "order")
      ok = stage("order", parse_order_block, spec.order, have_order);
    else
      ok = parse_fact(key, value, lx.line, decl, err);
    if (!ok) return false;
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
  decl.apply(*out);
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
