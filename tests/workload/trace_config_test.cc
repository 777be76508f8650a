// Grammar tests for the --trace non-stationary load parser: the inline
// key=value form, the @file.json form, canonical-serialization round-trips,
// and the negative space — unknown keys, overlapping segments, non-monotone
// timestamps, out-of-range fields and structural nonsense must all fail
// loudly with a useful message, never silently run a flat trace.
#include "src/workload/trace/trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

namespace snicsim {
namespace trace {
namespace {

TracePlan MustParse(const std::string& spec) {
  TracePlan plan;
  std::string error;
  EXPECT_TRUE(ParseTracePlan(spec, &plan, &error)) << error;
  return plan;
}

std::string MustFail(const std::string& spec) {
  TracePlan plan;
  std::string error;
  EXPECT_FALSE(ParseTracePlan(spec, &plan, &error)) << "spec: " << spec;
  EXPECT_FALSE(error.empty()) << "spec: " << spec;
  return error;
}

TEST(TraceConfig, EmptySpecIsEmptyPlan) {
  const TracePlan plan = MustParse("");
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.Serialize(), "");
}

TEST(TraceConfig, InlineFullGrammar) {
  const TracePlan plan = MustParse(
      "version=1,duration=300,seg=0:0.5,seg=100:1.5:64:0.25:2,seg=200:1");
  EXPECT_EQ(plan.version, 1);
  EXPECT_DOUBLE_EQ(plan.duration_us, 300.0);
  ASSERT_EQ(plan.segments.size(), 3u);
  EXPECT_DOUBLE_EQ(plan.segments[0].start_us, 0.0);
  EXPECT_DOUBLE_EQ(plan.segments[0].rate, 0.5);
  EXPECT_EQ(plan.segments[0].churn, 0u);
  EXPECT_DOUBLE_EQ(plan.segments[0].scan, 0.0);
  EXPECT_DOUBLE_EQ(plan.segments[0].bg, 1.0);
  EXPECT_DOUBLE_EQ(plan.segments[1].start_us, 100.0);
  EXPECT_DOUBLE_EQ(plan.segments[1].rate, 1.5);
  EXPECT_EQ(plan.segments[1].churn, 64u);
  EXPECT_DOUBLE_EQ(plan.segments[1].scan, 0.25);
  EXPECT_DOUBLE_EQ(plan.segments[1].bg, 2.0);
}

TEST(TraceConfig, SerializeRoundTripsAndIsAFixedPoint) {
  const TracePlan plan = MustParse(
      "version=1,duration=1200,seg=0:0.3:0:0:3,seg=100:1:2048:0.5:0.5,"
      "seg=600:1.6");
  const std::string canon = plan.Serialize();
  const TracePlan reparsed = MustParse(canon);
  // parse -> serialize -> parse converges immediately, and the structured
  // forms compare equal field-for-field.
  EXPECT_EQ(reparsed.Serialize(), canon);
  EXPECT_TRUE(reparsed == plan);
}

TEST(TraceConfig, JsonFileFormMatchesInline) {
  const std::string path = ::testing::TempDir() + "/trace_test.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << R"({"version":1,"duration_us":300,
               "segments":[{"start_us":0,"rate":0.5},
                           {"start_us":100,"rate":1.5,"churn":64,
                            "scan":0.25,"bg":2},
                           {"start_us":200,"rate":1}]})";
  }
  const TracePlan json = MustParse("@" + path);
  const TracePlan inl = MustParse(
      "version=1,duration=300,seg=0:0.5,seg=100:1.5:64:0.25:2,seg=200:1");
  EXPECT_EQ(json.Serialize(), inl.Serialize());
  EXPECT_TRUE(json == inl);
}

TEST(TraceConfig, UnknownKeysFailLoudly) {
  EXPECT_NE(MustFail("duration=100,seg=0:1,frobnicate=1")
                .find("unknown trace key"),
            std::string::npos);
}

TEST(TraceConfig, UnknownJsonKeysFailLoudly) {
  const std::string path = ::testing::TempDir() + "/trace_badkey.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << R"({"duration_us":100,"segments":[{"start_us":0,"rate":1}],
               "frobnicate":1})";
  }
  EXPECT_NE(MustFail("@" + path).find("unknown trace key"), std::string::npos);

  const std::string path2 = ::testing::TempDir() + "/trace_badseg.json";
  {
    std::ofstream out(path2, std::ios::binary);
    out << R"({"duration_us":100,
               "segments":[{"start_us":0,"rate":1,"wat":2}]})";
  }
  EXPECT_NE(MustFail("@" + path2).find("unknown segment field"),
            std::string::npos);
}

TEST(TraceConfig, OverlappingAndNonMonotoneSegmentsFail) {
  // Duplicate start: two segments claim the same instant.
  EXPECT_NE(MustFail("duration=100,seg=0:1,seg=50:2,seg=50:3")
                .find("strictly increasing"),
            std::string::npos);
  // Non-monotone timestamps.
  EXPECT_NE(MustFail("duration=100,seg=0:1,seg=60:2,seg=30:3")
                .find("strictly increasing"),
            std::string::npos);
}

TEST(TraceConfig, StructuralNonsenseFails) {
  // First segment must anchor the trace at t = 0.
  EXPECT_NE(MustFail("duration=100,seg=10:1").find("start at 0"),
            std::string::npos);
  // A segment past the duration covers nothing.
  EXPECT_NE(MustFail("duration=100,seg=0:1,seg=100:2")
                .find("at or past the trace duration"),
            std::string::npos);
  MustFail("duration=0,seg=0:1");
  MustFail("duration=-5,seg=0:1");
  MustFail("version=2,duration=100,seg=0:1");
  MustFail("duration=100,seg=0:1:2:3:4:5");  // too many fields
  MustFail("duration=100,seg=0");            // too few fields
  MustFail("duration=100,seg=0:abc");        // non-numeric rate
  MustFail("duration=ten,seg=0:1");          // non-numeric duration
  // A plan with a duration but no segments is *empty* — it parses as a
  // no-op rather than failing, matching the other optional layers.
  TracePlan plan;
  std::string error;
  EXPECT_TRUE(ParseTracePlan("duration=100", &plan, &error)) << error;
  EXPECT_TRUE(plan.empty());
}

TEST(TraceConfig, RangeViolationsFail) {
  EXPECT_NE(MustFail("duration=100,seg=0:-1").find("rate must be >= 0"),
            std::string::npos);
  EXPECT_NE(MustFail("duration=100,seg=0:1:0:1.5").find("scan not in [0, 1]"),
            std::string::npos);
  EXPECT_NE(MustFail("duration=100,seg=0:1:0:0:-2").find("bg must be >= 0"),
            std::string::npos);
  EXPECT_NE(MustFail("duration=100,seg=0:1:-3").find("churn"),
            std::string::npos);
  // Non-finite numbers, and numbers that overflow the field they land in,
  // in both forms.
  MustFail("version=1,duration=nan,seg=0:1");
  MustFail("version=1,duration=inf,seg=0:1");
  MustFail("duration=100,seg=0:nan");
  EXPECT_NE(MustFail("duration=100,seg=0:1:1e30").find("churn"), std::string::npos);
  MustFail("duration=1e13,seg=0:1");  // overflows the ps clock
  MustFail("version=1e10,duration=100,seg=0:1");
  const std::string path = ::testing::TempDir() + "/trace_strict.json";
  for (const char* body : {
           R"({"version":1,"duration_us":nan,"segments":[{"start_us":0,"rate":1}]})",
           R"({"version":1,"duration_us":inf,"segments":[{"start_us":0,"rate":1}]})",
           R"({"duration_us":100,"segments":[{"start_us":0,"rate":nan}]})",
           R"({"duration_us":100,"segments":[{"start_us":0,"rate":1,"churn":1e30}]})",
           R"({"duration_us":1e13,"segments":[{"start_us":0,"rate":1}]})",
           R"({"version":1e10,"duration_us":100,"segments":[{"start_us":0}]})",
       }) {
    std::ofstream(path, std::ios::binary) << body;
    MustFail("@" + path);
  }
}

TEST(TraceConfig, MissingFileFails) {
  EXPECT_NE(MustFail("@/nonexistent/trace.json").find("cannot read"),
            std::string::npos);
}

TEST(TraceDriverTest, LookupAndDerivedProperties) {
  const TracePlan plan = MustParse(
      "duration=300,seg=0:0.5:0:0:3,seg=100:2:64:0.25:0.5,seg=200:1");
  const TraceDriver d(plan);
  EXPECT_EQ(d.segment_count(), 3);
  EXPECT_EQ(d.duration(), FromMicros(300));
  EXPECT_DOUBLE_EQ(d.peak_rate(), 2.0);
  EXPECT_TRUE(d.has_scan());
  EXPECT_FALSE(d.flat());

  EXPECT_EQ(d.SegmentAt(0), 0);
  EXPECT_EQ(d.SegmentAt(FromMicros(99)), 0);
  EXPECT_EQ(d.SegmentAt(FromMicros(100)), 1);
  EXPECT_EQ(d.SegmentAt(FromMicros(250)), 2);
  // Past the end clamps to the last segment (drain-phase lookups).
  EXPECT_EQ(d.SegmentAt(FromMicros(1000)), 2);

  EXPECT_DOUBLE_EQ(d.RateAt(FromMicros(50)), 0.5);
  EXPECT_EQ(d.ChurnAt(FromMicros(150)), 64u);
  EXPECT_DOUBLE_EQ(d.ScanAt(FromMicros(150)), 0.25);
  EXPECT_DOUBLE_EQ(d.BgAt(FromMicros(50)), 3.0);

  EXPECT_EQ(d.NextChangeAt(0), FromMicros(100));
  EXPECT_EQ(d.NextChangeAt(FromMicros(150)), FromMicros(200));
  EXPECT_EQ(d.NextChangeAt(FromMicros(250)), FromMicros(300));

  // A flat plan (all defaults) reports flat() — the fleets' zero-extra-draw
  // fast path.
  const TraceDriver flat(MustParse("duration=100,seg=0:1"));
  EXPECT_TRUE(flat.flat());
  EXPECT_FALSE(flat.has_scan());
  EXPECT_DOUBLE_EQ(flat.peak_rate(), 1.0);
}

}  // namespace
}  // namespace trace
}  // namespace snicsim
