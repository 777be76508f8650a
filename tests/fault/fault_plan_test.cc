// FaultPlan parsing: the inline key=value grammar, the @file.json schedule
// form, and the rejection of malformed specs (a typo'd schedule must fail
// loudly, never silently run fault-free).
#include <gtest/gtest.h>

#include <fstream>

#include "src/fault/plan.h"

namespace snicsim {
namespace fault {
namespace {

FaultPlan MustParse(const std::string& spec) {
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(ParseFaultPlan(spec, &plan, &error)) << error;
  return plan;
}

std::string MustFail(const std::string& spec) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(ParseFaultPlan(spec, &plan, &error)) << "spec: " << spec;
  EXPECT_FALSE(error.empty());
  return error;
}

TEST(FaultPlan, EmptySpecIsEmptyPlan) {
  const FaultPlan plan = MustParse("");
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.drop_rate, 0.0);
  EXPECT_EQ(plan.seed, 1u);
}

TEST(FaultPlan, InlineScalars) {
  const FaultPlan plan = MustParse("drop=0.01,seed=42");
  EXPECT_FALSE(plan.empty());
  EXPECT_DOUBLE_EQ(plan.drop_rate, 0.01);
  EXPECT_EQ(plan.seed, 42u);
}

TEST(FaultPlan, InlineWindowsConvertMicrosecondsAndRepeat) {
  const FaultPlan plan = MustParse(
      "flap=bf_srv.port:10:20;flap=cli0.port:30:40,"
      "degrade=bf_srv.port:0:50:4.5,stall=soc:5:15");
  ASSERT_EQ(plan.flaps.size(), 2u);
  EXPECT_EQ(plan.flaps[0].link, "bf_srv.port");
  EXPECT_EQ(plan.flaps[0].start, FromMicros(10));
  EXPECT_EQ(plan.flaps[0].end, FromMicros(20));
  EXPECT_EQ(plan.flaps[1].link, "cli0.port");
  ASSERT_EQ(plan.degrades.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.degrades[0].factor, 4.5);
  EXPECT_EQ(plan.degrades[0].end, FromMicros(50));
  ASSERT_EQ(plan.stalls.size(), 1u);
  EXPECT_EQ(plan.stalls[0].domain, "soc");
  EXPECT_EQ(plan.stalls[0].start, FromMicros(5));
  // A flap-only plan still counts as non-empty even at drop 0.
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, InlineCrashWindows) {
  // Three-field form: the restart comes back warm (rewarm defaults to 0).
  const FaultPlan three = MustParse("crash=soc:80:140");
  ASSERT_EQ(three.crashes.size(), 1u);
  EXPECT_EQ(three.crashes[0].domain, "soc");
  EXPECT_EQ(three.crashes[0].start, FromMicros(80));
  EXPECT_EQ(three.crashes[0].end, FromMicros(140));
  EXPECT_EQ(three.crashes[0].rewarm, 0);
  EXPECT_FALSE(three.empty());

  // Four-field form adds the cold-cache rewarm tail; windows repeat.
  const FaultPlan four = MustParse("crash=soc:80:140:20;crash=host:10:30");
  ASSERT_EQ(four.crashes.size(), 2u);
  EXPECT_EQ(four.crashes[0].rewarm, FromMicros(20));
  EXPECT_EQ(four.crashes[1].domain, "host");
  EXPECT_EQ(four.crashes[1].rewarm, 0);
}

TEST(FaultPlan, BareNumberIsDropRateShorthand) {
  // `--faults=0.02` predates the structured grammar; it must keep working.
  const FaultPlan plan = MustParse("0.02");
  EXPECT_DOUBLE_EQ(plan.drop_rate, 0.02);
  EXPECT_FALSE(plan.empty());
  // The shorthand is only for a lone probability: anything else goes
  // through the key=value grammar and its validation.
  MustFail("1.5");
  MustFail("0.02,seed");
}

TEST(FaultPlan, InlineRejectsMalformedSpecs) {
  MustFail("drop=1.5");                   // probability out of range
  MustFail("drop=abc");                   // not a number
  MustFail("seed=-3");                    // negative seed
  MustFail("flap=link:20:10");            // END < START
  MustFail("flap=:0:10");                 // empty link name
  MustFail("flap=link:0");                // missing field
  MustFail("degrade=link:0:10:0.5");      // factor < 1 speeds the link up
  MustFail("stall=soc:0:10:extra");       // too many fields
  MustFail("typo=1");                     // unknown key
  MustFail("justaword");                  // not key=value
  MustFail("crash=soc:140:80");           // END < START
  MustFail("crash=:80:140");              // empty domain
  MustFail("crash=soc:80");               // missing END
  MustFail("crash=soc:80:140:-5");        // negative rewarm
  MustFail("crash=soc:80:140:20:extra");  // too many fields
  // Non-finite numbers, and numbers that overflow the field they land in.
  MustFail("drop=nan");
  MustFail("seed=nan");
  MustFail("seed=1e30");                  // past uint64_t
  MustFail("flap=l0:0:inf");
  MustFail("crash=soc:0:10:nan");
  MustFail("corrupt=rack.s1:5:nan");
  MustFail("stall=soc:0:1e13");           // 1e13 us overflows the ps clock
  MustFail("nan");                        // not a bare drop rate either
}

TEST(FaultPlan, JsonScheduleFile) {
  const std::string path = ::testing::TempDir() + "/fault_plan_test_schedule.json";
  {
    std::ofstream out(path);
    out << R"({"drop": 0.02, "seed": 9,
               "flaps": [{"link": "bf_srv.port", "start_us": 10, "end_us": 20}],
               "degrades": [{"link": "cli0.port", "start_us": 0, "end_us": 5, "factor": 2}],
               "stalls": [{"domain": "soc", "start_us": 1, "end_us": 2}],
               "crashes": [{"domain": "soc", "start_us": 80, "end_us": 140,
                            "rewarm_us": 20},
                           {"domain": "host", "start_us": 5, "end_us": 8}]})";
  }
  const FaultPlan plan = MustParse("@" + path);
  EXPECT_DOUBLE_EQ(plan.drop_rate, 0.02);
  EXPECT_EQ(plan.seed, 9u);
  ASSERT_EQ(plan.flaps.size(), 1u);
  EXPECT_EQ(plan.flaps[0].link, "bf_srv.port");
  EXPECT_EQ(plan.flaps[0].start, FromMicros(10));
  ASSERT_EQ(plan.degrades.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.degrades[0].factor, 2.0);
  ASSERT_EQ(plan.stalls.size(), 1u);
  EXPECT_EQ(plan.stalls[0].domain, "soc");
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].domain, "soc");
  EXPECT_EQ(plan.crashes[0].start, FromMicros(80));
  EXPECT_EQ(plan.crashes[0].end, FromMicros(140));
  EXPECT_EQ(plan.crashes[0].rewarm, FromMicros(20));
  EXPECT_EQ(plan.crashes[1].rewarm, 0);  // rewarm_us defaults to 0
}

TEST(FaultPlan, DomainMatchesHierarchy) {
  // Exact.
  EXPECT_TRUE(DomainMatches("soc", "soc"));
  EXPECT_TRUE(DomainMatches("rack.s3.soc", "rack.s3.soc"));
  // Leaf alias: a bare endpoint name covers that endpoint on every server.
  EXPECT_TRUE(DomainMatches("soc", "rack.s3.soc"));
  EXPECT_TRUE(DomainMatches("host", "rack.s0.host"));
  EXPECT_FALSE(DomainMatches("soc", "rack.s3.host"));
  // Subtree: a server prefix covers both of its endpoints.
  EXPECT_TRUE(DomainMatches("rack.s3", "rack.s3.soc"));
  EXPECT_TRUE(DomainMatches("rack.s3", "rack.s3.host"));
  EXPECT_FALSE(DomainMatches("rack.s3", "rack.s13.soc"));
  // Segment boundaries only — no substring matches.
  EXPECT_FALSE(DomainMatches("oc", "rack.s3.soc"));
  // A trailing match must begin at a segment boundary: "s3.soc" is the
  // dot-aligned tail of "rack.s3.soc", "3.soc" is not.
  EXPECT_TRUE(DomainMatches("s3.soc", "rack.s3.soc"));
  EXPECT_FALSE(DomainMatches("3.soc", "rack.s3.soc"));
  // A longer (more scoped) plan name never widens onto a short query.
  EXPECT_FALSE(DomainMatches("rack.s3.soc", "soc"));
  EXPECT_FALSE(DomainMatches("rack.s3", "rack"));
}

TEST(FaultPlan, GrammarAcceptsLegacyAndRackScopedDomains) {
  // The legacy spelling still parses and (via the leaf alias) still covers
  // every SoC endpoint of a rack topology.
  const FaultPlan legacy = MustParse("crash=soc:5:40:10,stall=host:1:2");
  ASSERT_EQ(legacy.crashes.size(), 1u);
  EXPECT_EQ(legacy.crashes[0].domain, "soc");
  EXPECT_TRUE(DomainMatches(legacy.crashes[0].domain, "rack.s7.soc"));
  EXPECT_TRUE(DomainMatches(legacy.stalls[0].domain, "rack.s0.host"));

  // The rack-scoped spellings parse unchanged: one endpoint, or a whole
  // server by subtree.
  const FaultPlan scoped =
      MustParse("crash=rack.s1.soc:80:160:20;crash=rack.s2:80:200:0");
  ASSERT_EQ(scoped.crashes.size(), 2u);
  EXPECT_EQ(scoped.crashes[0].domain, "rack.s1.soc");
  EXPECT_TRUE(DomainMatches(scoped.crashes[0].domain, "rack.s1.soc"));
  EXPECT_FALSE(DomainMatches(scoped.crashes[0].domain, "rack.s1.host"));
  EXPECT_FALSE(DomainMatches(scoped.crashes[0].domain, "soc"));
  EXPECT_TRUE(DomainMatches(scoped.crashes[1].domain, "rack.s2.host"));
  EXPECT_TRUE(DomainMatches(scoped.crashes[1].domain, "rack.s2.soc"));
  EXPECT_FALSE(DomainMatches(scoped.crashes[1].domain, "rack.s20.soc"));
}

TEST(FaultPlan, InlinePermLossAndCorrupt) {
  const FaultPlan plan = MustParse(
      "permloss=rack.s1:120;permloss=rack.s3:500,"
      "corrupt=rack.s2:150:0.25;corrupt=soc:10");
  ASSERT_EQ(plan.permlosses.size(), 2u);
  EXPECT_EQ(plan.permlosses[0].domain, "rack.s1");
  EXPECT_EQ(plan.permlosses[0].at, FromMicros(120));
  EXPECT_EQ(plan.permlosses[1].domain, "rack.s3");
  EXPECT_EQ(plan.permlosses[1].at, FromMicros(500));
  ASSERT_EQ(plan.corrupts.size(), 2u);
  EXPECT_EQ(plan.corrupts[0].domain, "rack.s2");
  EXPECT_EQ(plan.corrupts[0].at, FromMicros(150));
  EXPECT_DOUBLE_EQ(plan.corrupts[0].fraction, 0.25);
  EXPECT_DOUBLE_EQ(plan.corrupts[1].fraction, 0.05);  // grammar default
  // A permloss/corrupt-only plan is non-empty: the harness must build an
  // injector for it.
  EXPECT_FALSE(MustParse("permloss=rack.s1:120").empty());
  EXPECT_FALSE(MustParse("corrupt=soc:10").empty());
}

TEST(FaultPlan, PermLossAndCorruptRejectMalformedSpecs) {
  MustFail("permloss=rack.s1");           // missing AT
  MustFail("permloss=:120");              // empty domain
  MustFail("permloss=rack.s1:-5");        // negative time
  MustFail("permloss=rack.s1:120:extra"); // too many fields
  MustFail("corrupt=soc");                // missing AT
  MustFail("corrupt=:10");                // empty domain
  MustFail("corrupt=soc:10:0");           // fraction must be > 0
  MustFail("corrupt=soc:10:1.5");         // fraction must be <= 1
  MustFail("corrupt=soc:10:0.2:extra");   // too many fields
}

TEST(FaultPlan, JsonPermLossAndCorrupt) {
  const std::string path = ::testing::TempDir() + "/fault_plan_test_repair.json";
  {
    std::ofstream out(path);
    out << R"({"seed": 9,
               "permlosses": [{"domain": "rack.s1", "at_us": 120}],
               "corrupts": [{"domain": "rack.s2", "at_us": 150,
                             "fraction": 0.25}]})";
  }
  const FaultPlan plan = MustParse("@" + path);
  ASSERT_EQ(plan.permlosses.size(), 1u);
  EXPECT_EQ(plan.permlosses[0].domain, "rack.s1");
  EXPECT_EQ(plan.permlosses[0].at, FromMicros(120));
  ASSERT_EQ(plan.corrupts.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.corrupts[0].fraction, 0.25);

  const std::string bad = ::testing::TempDir() + "/fault_plan_test_repair_bad.json";
  {
    std::ofstream out(bad);
    out << R"({"permlosses": [{"domain": "rack.s1"}]})";  // no at_us
  }
  MustFail("@" + bad);
}

TEST(FaultPlan, JsonRejectsUnknownKeysAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/fault_plan_test_bad.json";
  {
    std::ofstream out(path);
    out << R"({"drop": 0.1, "oops": 3})";
  }
  EXPECT_NE(MustFail("@" + path).find("unknown schedule key"), std::string::npos);
  EXPECT_NE(MustFail("@/nonexistent/schedule.json").find("cannot read"),
            std::string::npos);

  const std::string incomplete = ::testing::TempDir() + "/fault_plan_test_incomplete.json";
  {
    std::ofstream out(incomplete);
    out << R"({"flaps": [{"link": "x", "start_us": 5}]})";  // no end_us
  }
  MustFail("@" + incomplete);

  // The strict-number reproducers in the JSON form.
  const std::string strict = ::testing::TempDir() + "/fault_plan_test_strict.json";
  for (const char* body : {
           R"({"drop": nan})",
           R"({"seed": nan})",
           R"({"seed": 1e30})",
           R"({"flaps": [{"link": "l0", "start_us": 0, "end_us": inf}]})",
           R"({"crashes": [{"domain": "soc", "start_us": 0, "end_us": 10, "rewarm_us": nan}]})",
           R"({"corrupts": [{"domain": "rack.s1", "at_us": 5, "fraction": nan}]})",
           R"({"stalls": [{"domain": "soc", "start_us": 0, "end_us": 1e13}]})",
       }) {
    std::ofstream(strict, std::ios::binary) << body;
    MustFail("@" + strict);
  }
}

}  // namespace
}  // namespace fault
}  // namespace snicsim
