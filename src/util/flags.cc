#include "util/flags.h"

#include <cstdlib>

namespace avt {

Flags Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      flags.errors_.push_back("bare '--' argument");
      continue;
    }
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // --name value, unless the next token is another flag — then treat as
    // a boolean switch.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[body] = argv[i + 1];
      ++i;
    } else {
      flags.values_[body] = "true";
    }
  }
  return flags;
}

std::vector<std::string> Flags::Names() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [name, value] : values_) names.push_back(name);
  return names;
}

int64_t Flags::GetInt(const std::string& name, int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') return default_value;
  return v;
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') return default_value;
  return v;
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  return default_value;
}

}  // namespace avt
