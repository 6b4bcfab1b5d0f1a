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

/// `convert(text, &end)` over the whole of `text`, or reject.
template <typename Convert>
auto parse_full(const std::string& name, const std::string& text,
                const char* expected, Convert convert) {
  char* end = nullptr;
  errno = 0;
  const auto value = convert(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    reject(name, text, expected);
  }
  return value;
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

const std::string* Flags::find(const std::string& name) const {
  read_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

double Flags::get_double(const std::string& name, double fallback) const {
  const std::string* text = find(name);
  if (text == nullptr) return fallback;
  return parse_full(name, *text, "a number", [](const char* s, char** end) {
    return std::strtod(s, end);
  });
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  const std::string* text = find(name);
  if (text == nullptr) return fallback;
  return parse_full(name, *text, "an integer", [](const char* s, char** end) {
    return std::strtoll(s, end, 10);
  });
}

std::string Flags::get_string(const std::string& name, std::string fallback) const {
  const std::string* text = find(name);
  return text == nullptr ? std::move(fallback) : *text;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const std::string* text = find(name);
  if (text == nullptr) return fallback;
  const std::string& v = *text;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  reject(name, v, "a boolean (true/1/yes or false/0/no)");
}

bool Flags::has(const std::string& name) const { return find(name) != nullptr; }

void Flags::reject_unread() const {
  for (const auto& [name, value] : values_) {
    if (!read_.contains(name)) {
      throw std::invalid_argument("flags: unknown flag --" + name);
    }
  }
}

}  // namespace wlsync::util
