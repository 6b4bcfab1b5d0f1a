#include "util/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace wlsync::util {

namespace {

[[noreturn]] void reject(const std::string& name, const std::string& value,
                         const char* expected) {
  throw std::invalid_argument("flags: --" + name + "='" + value +
                              "' is not " + expected);
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) {
      std::fprintf(stderr, "flags: ignoring positional argument '%s'\n", argv[i]);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      values_[std::string(arg)] = argv[++i];
    } else {
      values_[std::string(arg)] = "true";  // bare flag
    }
  }
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const char* begin = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || errno == ERANGE) {
    reject(name, it->second, "a number");
  }
  return value;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const char* begin = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(begin, &end, 10);
  if (end == begin || *end != '\0' || errno == ERANGE) {
    reject(name, it->second, "an integer");
  }
  return value;
}

std::string Flags::get_string(const std::string& name, std::string fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? std::move(fallback) : it->second;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  reject(name, v, "a boolean (true/1/yes or false/0/no)");
}

bool Flags::has(const std::string& name) const { return values_.contains(name); }

}  // namespace wlsync::util
