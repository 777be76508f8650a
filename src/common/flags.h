// Tiny command-line flag parser for bench/example binaries.
//
// Supports --name=value, --name value, and boolean --name / --no-name.
// Unknown flags abort with a usage listing so that typos in sweep scripts
// fail fast instead of silently running the default configuration; so does
// a value its getter cannot read in full ("--name: <error>", exit 2).
#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace snicsim {

class Flags {
 public:
  Flags(int argc, char** argv);

  // Each getter registers the flag (for --help) and returns the parsed value
  // or the default.
  bool GetBool(const std::string& name, bool def, const std::string& help = "");
  int64_t GetInt(const std::string& name, int64_t def, const std::string& help = "");
  double GetDouble(const std::string& name, double def, const std::string& help = "");
  std::string GetString(const std::string& name, const std::string& def,
                        const std::string& help = "");

  // Call after all getters: aborts on unknown flags, prints usage on --help.
  void Finish() const;

  bool csv() const { return csv_; }

 private:
  struct Known {
    std::string name;
    std::string help;
    std::string def;
  };
  const std::string* Find(const std::string& name) const;

  std::string program_;
  std::vector<std::pair<std::string, std::string>> parsed_;  // name -> raw value
  std::vector<Known> known_;
  mutable std::vector<std::string> consumed_;
  bool help_ = false;
  bool csv_ = false;
};

}  // namespace snicsim

#endif  // SRC_COMMON_FLAGS_H_
