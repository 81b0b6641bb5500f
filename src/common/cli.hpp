// Minimal command-line flag parsing for benchmark and example binaries.
//
// Flags take the form `--name=value` or `--name value`.  Unknown flags are an
// error so that typos in sweep scripts fail fast instead of silently running
// the default configuration.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ace {

class Cli {
 public:
  Cli(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected positional argument: %s\n", argv[i]);
        std::exit(2);
      }
      arg.remove_prefix(2);
      std::string_view value = "1";  // bare flag => boolean true
      const auto eq = arg.find('=');
      if (eq != std::string_view::npos) {
        value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
      } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      values_.insert_or_assign(std::string(arg), std::string(value));
    }
  }

  std::int64_t get_int(const std::string& name, std::int64_t def) {
    seen_.push_back(name);
    auto it = values_.find(name);
    return it == values_.end() ? def : std::strtoll(it->second.c_str(), nullptr, 10);
  }

  double get_double(const std::string& name, double def) {
    seen_.push_back(name);
    auto it = values_.find(name);
    return it == values_.end() ? def : std::strtod(it->second.c_str(), nullptr);
  }

  std::string get_string(const std::string& name, const std::string& def) {
    seen_.push_back(name);
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
  }

  bool get_bool(const std::string& name, bool def) {
    seen_.push_back(name);
    auto it = values_.find(name);
    if (it == values_.end()) return def;
    return it->second != "0" && it->second != "false";
  }

  /// Call after all get_* calls: aborts on flags that no get_* consumed.
  void finish() const {
    for (const auto& [k, v] : values_) {
      bool known = false;
      for (const auto& s : seen_)
        if (s == k) known = true;
      if (!known) {
        std::fprintf(stderr, "unknown flag: --%s\n", k.c_str());
        std::exit(2);
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::vector<std::string> seen_;
};

}  // namespace ace
