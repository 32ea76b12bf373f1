#include "sim/config.h"

#include <cctype>
#include <charconv>
#include <sstream>

namespace bridge {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

void Config::set(std::string_view key, std::string_view value) {
  values_.insert_or_assign(std::string(key), std::string(value));
}

bool Config::has(std::string_view key) const {
  return values_.find(key) != values_.end();
}

std::optional<std::string> Config::getString(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::int64_t> Config::getInt(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  const std::string& s = it->second;
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> Config::getUint(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  const std::string& s = it->second;
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<double> Config::getDouble(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  // std::from_chars for double is not available everywhere; use strtod on a
  // NUL-terminated copy.
  const std::string& s = it->second;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || s.empty()) return std::nullopt;
  return v;
}

std::optional<bool> Config::getBool(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  const std::string& s = it->second;
  if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
  if (s == "false" || s == "0" || s == "no" || s == "off") return false;
  return std::nullopt;
}

bool Config::parse(std::string_view text, std::string* error) {
  std::size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    const std::size_t nl = text.find('\n');
    std::string_view line =
        nl == std::string_view::npos ? text : text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);

    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      if (error) {
        *error = "line " + std::to_string(line_no) + ": missing '='";
      }
      return false;
    }
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty()) {
      if (error) {
        *error = "line " + std::to_string(line_no) + ": empty key";
      }
      return false;
    }
    set(key, value);
  }
  return true;
}

void Config::forEach(
    const std::function<void(const std::string&, const std::string&)>& fn)
    const {
  for (const auto& [k, v] : values_) fn(k, v);
}

std::string Config::toText() const {
  std::ostringstream out;
  for (const auto& [k, v] : values_) out << k << " = " << v << '\n';
  return out.str();
}

}  // namespace bridge
