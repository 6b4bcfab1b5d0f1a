#pragma once
// Minimal command-line flag parsing for bench/example binaries.
// Supports `--name=value`, `--name value` and bare `--name` (= "true").
// Positional arguments are skipped with a warning; unknown flags are kept
// but never checked — a getter reads only the names it asks for.  Numeric
// and boolean getters throw std::invalid_argument, naming the flag, when
// the value does not parse in full.

#include <cstdint>
#include <map>
#include <string>

namespace wlsync::util {

class Flags {
 public:
  Flags(int argc, char** argv);

  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] std::string get_string(const std::string& name, std::string fallback) const;
  /// Accepts true/1/yes and false/0/no.
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  [[nodiscard]] bool has(const std::string& name) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace wlsync::util
