// The spec core under the --faults / --tenants / --load-trace grammars:
// splitting, the strict number reader, the checked integer and time casts,
// one toy grammar read in both forms, one-value keys in all three real
// grammars, and the canonical text form.
#include "src/common/spec.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "src/fault/plan.h"
#include "src/offload/tenant_config.h"
#include "src/workload/trace/trace.h"

namespace snicsim {
namespace spec {
namespace {

TEST(Spec, SplitEntriesAndFields) {
  EXPECT_EQ(SplitEntries(" a=1 ,b=2;;c=3,"), (std::vector<std::string>{"a=1", "b=2", "c=3"}));
  EXPECT_EQ(SplitFields("x::y", ':'), (std::vector<std::string>{"x", "", "y"}));
  EXPECT_EQ(SplitFields("", ':'), (std::vector<std::string>{""}));
}

TEST(Spec, NumbersAreStrict) {
  double v = 0.0;
  EXPECT_TRUE(ParseNumber("1.5e3", &v));
  EXPECT_EQ(v, 1500.0);
  for (const char* bad : {"", "nan", "-nan", "inf", "-inf", "infinity", "1e400", "1x", "x"}) {
    EXPECT_FALSE(ParseNumber(bad, &v)) << bad;
  }
}

TEST(Spec, MicrosToTimeMatchesFromMicrosAndRejectsOverflow) {
  SimTime t = 0;
  EXPECT_TRUE(MicrosToTime(12.5, &t));
  EXPECT_EQ(t, FromMicros(12.5));
  EXPECT_TRUE(MicrosToTime(9.2e12, &t));  // just inside the int64 ps clock
  EXPECT_FALSE(MicrosToTime(9.3e12, &t));
  EXPECT_FALSE(MicrosToTime(-1.0, &t));
}

// A toy grammar with one of each key shape.
struct Toy {
  double rate = 0.0;
  int count = 0;
  uint32_t bytes = 0;
  uint64_t seed = 0;
  std::vector<int> cores;
  std::vector<std::string> names;
};

bool ParseToy(const std::string& text, Toy* out, std::string* error) {
  *out = Toy();
  const auto item = [out](Value& v) {
    std::string name;
    double weight = 1.0;
    if (!v.ReadRecord({{"name", &name}, {"bytes", &out->bytes}, {"weight", &weight}}, 2)) {
      return false;
    }
    if (name.empty()) {
      return v.Fail("empty name");
    }
    out->names.push_back(name);
    return true;
  };
  const Grammar grammar{"toy",
                        "toy-file",
                        {Scalar("rate", &out->rate),
                         Scalar("count", &out->count, "count_n"),
                         Scalar("seed", &out->seed),
                         List("cores", &out->cores),
                         Records("item", "items", item)}};
  return Parse(text, grammar, error);
}

std::string ToyError(const std::string& text) {
  Toy toy;
  std::string error;
  EXPECT_FALSE(ParseToy(text, &toy, &error)) << text;
  return error;
}

TEST(Spec, InlineAndJsonFormsReadTheSameSchema) {
  Toy inl;
  std::string error;
  ASSERT_TRUE(ParseToy("rate=0.5,count=3.9,seed=7,cores=2:4,item=a:64;item=b:128:2", &inl,
                       &error))
      << error;
  EXPECT_EQ(inl.rate, 0.5);
  EXPECT_EQ(inl.count, 3);  // fractions truncate
  EXPECT_EQ(inl.seed, 7u);
  EXPECT_EQ(inl.cores, (std::vector<int>{2, 4}));
  EXPECT_EQ(inl.names, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(inl.bytes, 128u);

  const std::string path = ::testing::TempDir() + "/spec_toy.json";
  std::ofstream(path, std::ios::binary)
      << R"({"rate":0.5,"count_n":3.9,"seed":7,"cores":[2,4],
            "items":[{"name":"a","bytes":64},{"bytes":128,"name":"b","weight":2}]})";
  Toy json;
  ASSERT_TRUE(ParseToy("@" + path, &json, &error)) << error;
  EXPECT_EQ(json.rate, inl.rate);
  EXPECT_EQ(json.count, inl.count);
  EXPECT_EQ(json.seed, inl.seed);
  EXPECT_EQ(json.cores, inl.cores);
  EXPECT_EQ(json.names, inl.names);
  EXPECT_EQ(json.bytes, inl.bytes);
}

TEST(Spec, IntegerFieldsRejectWhatDoesNotFit) {
  Toy toy;
  std::string error;
  EXPECT_TRUE(ParseToy("count=2147483647,seed=18446744073709549568", &toy, &error)) << error;
  EXPECT_EQ(toy.count, 2147483647);
  EXPECT_EQ(toy.seed, 18446744073709549568u);
  ToyError("count=2147483648");
  ToyError("seed=18446744073709551616");  // 2^64
  ToyError("seed=-1");
  ToyError("item=a:4294967296");          // past uint32_t
  ToyError("cores=2:3e9");                // past int
  ToyError("rate=nan");
}

TEST(Spec, MessagesNameWhatWentWrong) {
  EXPECT_NE(ToyError("bogus=1").find("unknown toy key 'bogus'"), std::string::npos);
  EXPECT_NE(ToyError("rate").find("toy entry 'rate' is not key=value"), std::string::npos);
  EXPECT_NE(ToyError("item=a").find("want NAME:BYTES[:WEIGHT]"), std::string::npos);
  EXPECT_NE(ToyError("item=:1").find("empty name"), std::string::npos);
  EXPECT_NE(ToyError("@/nonexistent/toy.json").find("cannot read toy-file file"),
            std::string::npos);

  const std::string path = ::testing::TempDir() + "/spec_toy_bad.json";
  const auto json_error = [&](const char* body) {
    std::ofstream(path, std::ios::binary) << body;
    return ToyError("@" + path);
  };
  EXPECT_NE(json_error(R"({"bogus":1})").find("unknown toy-file key 'bogus'"),
            std::string::npos);
  EXPECT_NE(json_error(R"({"items":[{"name":"a","color":1}]})").find("unknown item field 'color'"),
            std::string::npos);
  EXPECT_NE(json_error(R"({"items":[{"name":5}]})").find("must be a string"), std::string::npos);
  EXPECT_NE(json_error(R"({"rate":1} x)").find("trailing characters after toy-file object"),
            std::string::npos);
  EXPECT_NE(json_error(R"({"rate":1e400})").find("finite"), std::string::npos);
}

// A key that is not a record takes one value: letting the last one win
// would run `drop=0.1,drop=0` fault-free without a word.
TEST(Spec, RepeatedValueKeysFailInEveryGrammar) {
  std::string error;
  fault::FaultPlan faults;
  EXPECT_FALSE(fault::ParseFaultPlan("drop=0.1,drop=0", &faults, &error));
  EXPECT_NE(error.find("repeated fault key 'drop'"), std::string::npos) << error;
  offload::TenantSetConfig tenants;
  EXPECT_FALSE(offload::ParseTenantSet("cores=2,cores=4", &tenants, &error));
  EXPECT_NE(error.find("repeated tenant key 'cores'"), std::string::npos) << error;
  trace::TracePlan plan;
  EXPECT_FALSE(
      trace::ParseTracePlan("version=1,duration=100,duration=200,seg=0:1", &plan, &error));
  EXPECT_NE(error.find("repeated trace key 'duration'"), std::string::npos) << error;

  const std::string path = ::testing::TempDir() + "/spec_repeated.json";
  std::ofstream(path, std::ios::binary) << R"({"drop":0.1,"drop":0.0})";
  EXPECT_FALSE(fault::ParseFaultPlan("@" + path, &faults, &error));
  EXPECT_NE(error.find("repeated schedule key 'drop'"), std::string::npos) << error;

  // Records still repeat, in both forms.
  Toy toy;
  EXPECT_TRUE(ParseToy("item=a:1,item=b:2", &toy, &error)) << error;
  std::ofstream(path, std::ios::binary) << R"({"items":[{"name":"a","bytes":1}],
                                              "items":[{"name":"b","bytes":2}]})";
  EXPECT_TRUE(ParseToy("@" + path, &toy, &error)) << error;
  EXPECT_EQ(toy.names, (std::vector<std::string>{"a", "b"}));
  EXPECT_NE(ToyError("cores=1,cores=2").find("repeated toy key 'cores'"), std::string::npos);
}

TEST(Spec, CanonicalTextForm) {
  EXPECT_EQ(FmtDouble(0.1), "0.10000000000000001");
  EXPECT_EQ(FmtDouble(2.0), "2");
  std::string s;
  AppendU(&s, 42);
  AppendD(&s, 0.5);
  EXPECT_EQ(s, "42|0.5|");
  // Pinned values: every seeded stream salt depends on them.
  EXPECT_EQ(Fnv1a(""), 1469598103934665603ULL);
  EXPECT_EQ(Fnv1a("a"), 4953267810257967366ULL);
}

}  // namespace
}  // namespace spec
}  // namespace snicsim
