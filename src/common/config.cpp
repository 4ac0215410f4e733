#include "pa/common/config.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "pa/common/error.h"

namespace pa {

namespace {
std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) {
    ++b;
  }
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
    --e;
  }
  return s.substr(b, e - b);
}
}  // namespace

Config Config::parse(const std::string& text) {
  Config cfg;
  std::string token;
  auto flush = [&]() {
    const std::string entry = trim(token);
    token.clear();
    if (entry.empty()) {
      return;
    }
    const auto eq = entry.find('=');
    PA_REQUIRE_ARG(eq != std::string::npos && eq > 0,
                   "config entry missing '=': '" << entry << "'");
    cfg.set(trim(entry.substr(0, eq)), trim(entry.substr(eq + 1)));
  };
  for (char ch : text) {
    if (ch == ',' || ch == ';') {
      flush();
    } else {
      token += ch;
    }
  }
  flush();
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  PA_REQUIRE_ARG(!key.empty(), "config key must be non-empty");
  values_[key] = value;
}

void Config::set(const std::string& key, std::int64_t value) {
  set(key, std::to_string(value));
}

void Config::set(const std::string& key, double value) {
  std::ostringstream oss;
  oss << value;
  set(key, oss.str());
}

void Config::set(const std::string& key, bool value) {
  set(key, std::string(value ? "true" : "false"));
}

bool Config::contains(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Config::get_string(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw NotFound("config key not found: " + key);
  }
  return it->second;
}

std::int64_t Config::get_int(const std::string& key) const {
  const std::string v = get_string(key);
  try {
    std::size_t pos = 0;
    const std::int64_t out = std::stoll(v, &pos);
    PA_REQUIRE_ARG(pos == v.size(), "trailing characters in int: '" << v << "'");
    return out;
  } catch (const std::invalid_argument&) {
    throw InvalidArgument("config value for '" + key + "' is not an int: " + v);
  } catch (const std::out_of_range&) {
    throw InvalidArgument("config value for '" + key + "' out of range: " + v);
  }
}

double Config::get_double(const std::string& key) const {
  const std::string v = get_string(key);
  try {
    std::size_t pos = 0;
    const double out = std::stod(v, &pos);
    PA_REQUIRE_ARG(pos == v.size(),
                   "trailing characters in double: '" << v << "'");
    return out;
  } catch (const std::invalid_argument&) {
    throw InvalidArgument("config value for '" + key +
                          "' is not a double: " + v);
  } catch (const std::out_of_range&) {
    throw InvalidArgument("config value for '" + key + "' out of range: " + v);
  }
}

bool Config::get_bool(const std::string& key) const {
  std::string v = get_string(key);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") {
    return false;
  }
  throw InvalidArgument("config value for '" + key + "' is not a bool: " + v);
}

std::string Config::get_string(const std::string& key,
                               const std::string& dflt) const {
  return contains(key) ? get_string(key) : dflt;
}

std::int64_t Config::get_int(const std::string& key, std::int64_t dflt) const {
  return contains(key) ? get_int(key) : dflt;
}

double Config::get_double(const std::string& key, double dflt) const {
  return contains(key) ? get_double(key) : dflt;
}

bool Config::get_bool(const std::string& key, bool dflt) const {
  return contains(key) ? get_bool(key) : dflt;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) {
    out.push_back(k);
  }
  return out;
}

void Config::merge(const Config& other) {
  for (const auto& [k, v] : other.values_) {
    values_[k] = v;
  }
}

std::string Config::to_string() const {
  std::string out;
  for (const auto& [k, v] : values_) {
    if (!out.empty()) {
      out += ',';
    }
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

}  // namespace pa
