#include "src/common/flags.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "src/common/spec.h"

namespace snicsim {
namespace {

Flags Make(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags(static_cast<int>(args.size()),
               const_cast<char**>(const_cast<const char**>(args.data())));
}

TEST(Flags, Defaults) {
  Flags f = Make({});
  EXPECT_EQ(f.GetInt("n", 7), 7);
  EXPECT_EQ(f.GetString("s", "x"), "x");
  EXPECT_TRUE(f.GetBool("b", true));
  EXPECT_DOUBLE_EQ(f.GetDouble("d", 2.5), 2.5);
  EXPECT_FALSE(f.csv());
}

TEST(Flags, EqualsSyntax) {
  Flags f = Make({"--n=42", "--s=hello", "--d=1.5"});
  EXPECT_EQ(f.GetInt("n", 0), 42);
  EXPECT_EQ(f.GetString("s", ""), "hello");
  EXPECT_DOUBLE_EQ(f.GetDouble("d", 0), 1.5);
}

TEST(Flags, SpaceSyntax) {
  Flags f = Make({"--n", "13"});
  EXPECT_EQ(f.GetInt("n", 0), 13);
}

TEST(Flags, BoolForms) {
  Flags t = Make({"--verbose"});
  EXPECT_TRUE(t.GetBool("verbose", false));
  Flags nf = Make({"--no-verbose"});
  EXPECT_FALSE(nf.GetBool("verbose", true));
  Flags explicit_false = Make({"--verbose=false"});
  EXPECT_FALSE(explicit_false.GetBool("verbose", true));
  for (const char* on : {"--b=1", "--b=true", "--b=yes", "--b=on"}) {
    EXPECT_TRUE(Make({on}).GetBool("b", false)) << on;
  }
  for (const char* off : {"--b=0", "--b=false", "--b=no", "--b=off"}) {
    EXPECT_FALSE(Make({off}).GetBool("b", true)) << off;
  }
}

TEST(Flags, CsvToggle) {
  Flags f = Make({"--csv"});
  EXPECT_TRUE(f.csv());
}

TEST(Flags, LastOccurrenceWins) {
  Flags f = Make({"--n=1", "--n=2"});
  EXPECT_EQ(f.GetInt("n", 0), 2);
}

TEST(Flags, HexIntegers) {
  Flags f = Make({"--addr=0x100"});
  EXPECT_EQ(f.GetInt("addr", 0), 256);
}

// A value the getter cannot read in full exits 2 with "--name: <error>",
// the spec grammars' wording, instead of running a default or a prefix.
TEST(FlagsDeathTest, RejectsTrailingJunkInInts) {
  EXPECT_EXIT(Make({"--n=2x"}).GetInt("n", 1), testing::ExitedWithCode(2),
              "--n: '2x' is not an integer");
  EXPECT_EXIT(Make({"--n=junk"}).GetInt("n", 1), testing::ExitedWithCode(2),
              "--n: 'junk'");
  EXPECT_EXIT(Make({"--n="}).GetInt("n", 1), testing::ExitedWithCode(2), "--n:");
}

TEST(FlagsDeathTest, RejectsOutOfRangeInts) {
  EXPECT_EXIT(Make({"--n=99999999999999999999"}).GetInt("n", 1),
              testing::ExitedWithCode(2), "--n: ");
}

TEST(FlagsDeathTest, RejectsNonFiniteAndJunkDoubles) {
  EXPECT_EXIT(Make({"--d=1.5x"}).GetDouble("d", 0), testing::ExitedWithCode(2),
              "--d: '1.5x' is not a finite number");
  EXPECT_EXIT(Make({"--d=nan"}).GetDouble("d", 0), testing::ExitedWithCode(2),
              "--d: ");
  EXPECT_EXIT(Make({"--d=inf"}).GetDouble("d", 0), testing::ExitedWithCode(2),
              "--d: ");
}

TEST(FlagsDeathTest, RejectsUnknownBoolSpellings) {
  EXPECT_EXIT(Make({"--check=maybe"}).GetBool("check", false),
              testing::ExitedWithCode(2), "--check: 'maybe' is not a bool");
  EXPECT_EXIT(Make({"--csv=maybe"}), testing::ExitedWithCode(2), "--csv: ");
}

// An output path is probed when the flag is read: an unwritable one exits 2
// before any run, instead of aborting after a whole sweep.
TEST(FlagsDeathTest, RejectsUnwritableOutputPaths) {
  Flags missing_dir = Make({"--metrics=/nonexistent/x.json"});
  EXPECT_EXIT(spec::OutputPathFlag(missing_dir, "metrics", ""), testing::ExitedWithCode(2),
              "--metrics: cannot write '/nonexistent/x.json'");
  const std::string dir = testing::TempDir();
  Flags directory = Make({"--trace", dir.c_str()});
  EXPECT_EXIT(spec::OutputPathFlag(directory, "trace", ""), testing::ExitedWithCode(2),
              "--trace: cannot write '");
}

TEST(Flags, WritableOutputPathIsReturnedAndLeftUncreated) {
  Flags unset = Make({});
  EXPECT_EQ(spec::OutputPathFlag(unset, "trace", ""), "");
  const std::string path = testing::TempDir() + "/flags_test_out.json";
  std::filesystem::remove(path);
  Flags set = Make({("--trace=" + path).c_str()});
  EXPECT_EQ(spec::OutputPathFlag(set, "trace", ""), path);
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace snicsim
