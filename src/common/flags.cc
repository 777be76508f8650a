#include "src/common/flags.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "src/common/spec.h"

namespace snicsim {

namespace {

// Values are read strictly, like the spec grammars: the whole text must
// parse, or the flag exits 2 with "--name: <error>" (spec::ExitBadFlag).
bool ParseBoolValue(const std::string& name, const std::string& v) {
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "0" || v == "false" || v == "no" || v == "off") {
    return false;
  }
  spec::ExitBadFlag(name, "'" + v + "' is not a bool");
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    std::string value;
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    parsed_.emplace_back(arg, value);
  }
  for (const auto& [name, value] : parsed_) {
    if (name == "help") {
      help_ = true;
    }
    if (name == "csv") {
      csv_ = ParseBoolValue(name, value);
    }
  }
  consumed_.push_back("help");
  consumed_.push_back("csv");
}

const std::string* Flags::Find(const std::string& name) const {
  const std::string* found = nullptr;
  for (const auto& [n, v] : parsed_) {
    if (n == name) {
      found = &v;  // last occurrence wins
    }
  }
  consumed_.push_back(name);
  return found;
}

bool Flags::GetBool(const std::string& name, bool def, const std::string& help) {
  known_.push_back({name, help, def ? "true" : "false"});
  consumed_.push_back("no-" + name);
  for (const auto& [n, v] : parsed_) {
    if (n == "no-" + name) {
      def = false;
    } else if (n == name) {
      def = ParseBoolValue(name, v);
    }
  }
  consumed_.push_back(name);
  return def;
}

int64_t Flags::GetInt(const std::string& name, int64_t def, const std::string& help) {
  known_.push_back({name, help, std::to_string(def)});
  const std::string* v = Find(name);
  if (v == nullptr) {
    return def;
  }
  // Base 0 keeps hex (0x100) and octal spellings.
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(v->c_str(), &end, 0);
  if (v->empty() || *end != '\0' || errno == ERANGE) {
    spec::ExitBadFlag(name, "'" + *v + "' is not an integer");
  }
  return n;
}

double Flags::GetDouble(const std::string& name, double def, const std::string& help) {
  known_.push_back({name, help, std::to_string(def)});
  const std::string* v = Find(name);
  double d = def;
  if (v != nullptr && !spec::ParseNumber(*v, &d)) {
    spec::ExitBadFlag(name, "'" + *v + "' is not a finite number");
  }
  return d;
}

std::string Flags::GetString(const std::string& name, const std::string& def,
                             const std::string& help) {
  known_.push_back({name, help, def});
  const std::string* v = Find(name);
  return v != nullptr ? *v : def;
}

void Flags::Finish() const {
  bool unknown = false;
  for (const auto& [name, value] : parsed_) {
    (void)value;
    if (std::find(consumed_.begin(), consumed_.end(), name) == consumed_.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
      unknown = true;
    }
  }
  if (help_ || unknown) {
    std::fprintf(stderr, "usage: %s [flags]\n", program_.c_str());
    std::fprintf(stderr, "  --csv  emit CSV instead of an aligned table\n");
    for (const auto& k : known_) {
      std::fprintf(stderr, "  --%s (default %s)  %s\n", k.name.c_str(), k.def.c_str(),
                   k.help.c_str());
    }
    std::exit(help_ ? 0 : 2);
  }
}

}  // namespace snicsim
