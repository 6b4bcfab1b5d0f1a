#pragma once
// Minimal command-line flag parsing for bench/example binaries.
// Supports `--name=value`, `--name value` and bare `--name` (= "true").
// Positional arguments are skipped with a warning.  Every getter and has()
// records the name it asked for; a driver calls reject_unread() once its
// flags are read, so a typo (`--nn=5`) fails instead of running the
// default.  Numeric and boolean getters throw std::invalid_argument, naming
// the flag, when the value does not parse in full.

#include <cstdint>
#include <map>
#include <set>
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

  /// Throws std::invalid_argument naming the first given flag (in name
  /// order) that no getter or has() asked for.
  void reject_unread() const;

 private:
  /// The value given for `name`, or nullptr; records the name as read.
  [[nodiscard]] const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace wlsync::util
