// Lightweight key=value configuration store (NVMain-style .config files).
//
// Values are stored as strings and converted on access. Components read their
// parameters through typed getters with defaults, so a config file only needs
// to name the parameters it overrides. The getters record every key they
// are asked for, so a front end can reject keys no component read (a
// misspelled key would otherwise run the defaults silently). That record
// makes concurrent reads of one Config a data race: build per thread.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace fgnvm {

class Config {
 public:
  Config() = default;

  /// Parses "key value" / "key=value" lines; '#' and ';' start comments.
  /// Later assignments override earlier ones. Throws std::runtime_error on
  /// malformed lines.
  static Config from_string(const std::string& text);

  /// Loads a config file from disk. Throws std::runtime_error on I/O error.
  static Config from_file(const std::string& path);

  void set(const std::string& key, const std::string& value);
  void set_u64(const std::string& key, std::uint64_t value);
  void set_double(const std::string& key, double value);
  void set_bool(const std::string& key, bool value);

  bool contains(const std::string& key) const;

  /// Typed getters; throw std::runtime_error if present but malformed.
  std::string get_string(const std::string& key, const std::string& dflt) const;
  std::uint64_t get_u64(const std::string& key, std::uint64_t dflt) const;
  double get_double(const std::string& key, double dflt) const;
  bool get_bool(const std::string& key, bool dflt) const;

  /// Getters that throw if the key is missing.
  std::string require_string(const std::string& key) const;
  std::uint64_t require_u64(const std::string& key) const;

  /// All keys in sorted order (for dumping / diffing configs).
  std::vector<std::string> keys() const;

  /// Keys set in this config that no typed getter (get_* / require_*) has
  /// been asked for, in sorted order. After every component has built its
  /// parameters from the config, these are keys nothing reads.
  std::vector<std::string> unread_keys() const;

  /// The key a typed getter has been asked for that is nearest to `key` by
  /// edit distance, if one lies within 2 edits (ties go to the first in
  /// sorted order): the "did you mean" hint for an unread key.
  std::optional<std::string> nearest_asked_key(const std::string& key) const;

  /// Overlays `other` on top of this config (other wins on conflicts).
  void merge(const Config& other);

  /// Serializes to "key = value" lines in sorted key order.
  std::string to_string() const;

 private:
  std::optional<std::string> find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> asked_;  // every key a getter looked up
};

}  // namespace fgnvm
