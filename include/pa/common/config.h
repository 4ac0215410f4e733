#pragma once
/// \file config.h
/// \brief Typed key-value configuration used by service URLs, experiment
/// descriptions and workload specs.
///
/// The pilot publications describe resources with SAGA-style URLs plus
/// attribute maps; `Config` is the attribute-map half: string keys, typed
/// getters with defaults, and strict getters that throw `pa::NotFound`.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pa {

/// Ordered string->string map with typed accessors.
class Config {
 public:
  Config() = default;

  /// Parses "k1=v1,k2=v2" (also accepts ';' separators and spaces).
  static Config parse(const std::string& text);

  void set(const std::string& key, const std::string& value);
  void set(const std::string& key, std::int64_t value);
  void set(const std::string& key, double value);
  void set(const std::string& key, bool value);

  bool contains(const std::string& key) const;
  bool empty() const { return values_.empty(); }

  /// Strict getters: throw pa::NotFound if absent, pa::InvalidArgument if
  /// unparsable.
  std::string get_string(const std::string& key) const;
  std::int64_t get_int(const std::string& key) const;
  double get_double(const std::string& key) const;
  bool get_bool(const std::string& key) const;

  /// Defaulted getters.
  std::string get_string(const std::string& key, const std::string& dflt) const;
  std::int64_t get_int(const std::string& key, std::int64_t dflt) const;
  double get_double(const std::string& key, double dflt) const;
  bool get_bool(const std::string& key, bool dflt) const;

  /// All keys in insertion-independent (sorted) order.
  std::vector<std::string> keys() const;

  /// Merge: entries in `other` override entries here.
  void merge(const Config& other);

  /// "k1=v1,k2=v2" round-trippable rendering, keys sorted.
  std::string to_string() const;

  bool operator==(const Config& other) const { return values_ == other.values_; }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace pa
