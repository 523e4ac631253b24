// Minimal command-line flag parsing for the bench/example binaries.
//
// Supports --name=value and --name value forms plus boolean switches
// (--verbose). Names() lists what was parsed, so a caller can reject
// flags it does not read; positional arguments are collected in order. This deliberately avoids a third-party dependency —
// the harness only needs a handful of scalar options.

#ifndef AVT_UTIL_FLAGS_H_
#define AVT_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace avt {

/// Parsed command line: flag map plus positional arguments.
class Flags {
 public:
  /// Parses argv. On syntax error records the problem and keeps going.
  static Flags Parse(int argc, char** argv);

  bool Has(const std::string& name) const {
    return values_.count(name) != 0;
  }

  std::string GetString(const std::string& name,
                        const std::string& default_value) const {
    auto it = values_.find(name);
    return it == values_.end() ? default_value : it->second;
  }

  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Every parsed flag name, sorted.
  std::vector<std::string> Names() const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::vector<std::string>& errors() const { return errors_; }

  /// Inserts/overrides a flag value (used by tests).
  void Set(const std::string& name, const std::string& value) {
    values_[name] = value;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::vector<std::string> errors_;
};

}  // namespace avt

#endif  // AVT_UTIL_FLAGS_H_
