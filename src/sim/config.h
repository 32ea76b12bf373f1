// Minimal typed key/value configuration store with a text parser.
//
// Platform definitions in src/platforms are plain structs; this Config class
// exists for the *tooling* layer: examples and the tuning-loop harness accept
// "key = value" override files (the moral equivalent of Chipyard config
// fragments) and apply them on top of a base platform.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace bridge {

/// Flat string->string map with typed accessors. Keys use dotted paths,
/// e.g. "core.fetch_width" or "dram.kind".
class Config {
 public:
  void set(std::string_view key, std::string_view value);
  bool has(std::string_view key) const;

  std::optional<std::string> getString(std::string_view key) const;
  std::optional<std::int64_t> getInt(std::string_view key) const;
  std::optional<std::uint64_t> getUint(std::string_view key) const;
  std::optional<double> getDouble(std::string_view key) const;
  std::optional<bool> getBool(std::string_view key) const;

  std::size_t size() const { return values_.size(); }

  /// Visit every (key, value) pair in sorted key order.
  void forEach(const std::function<void(const std::string& key,
                                        const std::string& value)>& fn) const;

  /// Parse "key = value" lines. '#' starts a comment; blank lines are
  /// ignored; later duplicates win. Returns false (and stops) on a malformed
  /// line, reporting it via *error if non-null.
  bool parse(std::string_view text, std::string* error = nullptr);

  /// Serialize back to "key = value" lines, sorted by key.
  std::string toText() const;

 private:
  std::map<std::string, std::string, std::less<>> values_;
};

}  // namespace bridge
