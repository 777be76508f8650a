// Grammar tests for the --tenants tenant-set parser: the inline key=value
// form, the @file.json form, canonical-serialization round-trips, and the
// negative space — unknown keys, unknown kinds, duplicate ids, and
// structural nonsense must all fail loudly with a useful message, never
// silently run single-tenant.
#include "src/offload/tenant_config.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

namespace snicsim {
namespace offload {
namespace {

TenantSetConfig MustParse(const std::string& spec) {
  TenantSetConfig cfg;
  std::string error;
  EXPECT_TRUE(ParseTenantSet(spec, &cfg, &error)) << error;
  return cfg;
}

std::string MustFail(const std::string& spec) {
  TenantSetConfig cfg;
  std::string error;
  EXPECT_FALSE(ParseTenantSet(spec, &cfg, &error)) << "spec: " << spec;
  EXPECT_FALSE(error.empty()) << "spec: " << spec;
  return error;
}

TEST(TenantConfig, EmptySpecIsEmptyConfig) {
  const TenantSetConfig cfg = MustParse("");
  EXPECT_TRUE(cfg.empty());
  EXPECT_EQ(cfg.Serialize(), "");
}

TEST(TenantConfig, InlineFullGrammar) {
  const TenantSetConfig cfg = MustParse(
      "cores=2:4,host_cores=3,seed=9,budget=0.1,"
      "tenant=scan0:filter:2:0.3:2048:40,"
      "tenant=zip0:compress:8:0.8:4096:0:0.25:1");
  ASSERT_EQ(cfg.pools.size(), 2u);
  EXPECT_EQ(cfg.pools[0], 2);
  EXPECT_EQ(cfg.pools[1], 4);
  EXPECT_EQ(cfg.host_cores, 3);
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_DOUBLE_EQ(cfg.slo_budget, 0.1);
  ASSERT_EQ(cfg.tenants.size(), 2u);
  const TenantSpec& scan = cfg.tenants[0];
  EXPECT_EQ(scan.id, "scan0");
  EXPECT_EQ(scan.kind, TenantKind::kFilter);
  EXPECT_EQ(scan.weight, 2);
  EXPECT_DOUBLE_EQ(scan.mops, 0.3);
  EXPECT_EQ(scan.item_bytes, 2048u);
  EXPECT_DOUBLE_EQ(scan.slo_us, 40.0);
  EXPECT_DOUBLE_EQ(scan.cap_mops, 0.0);
  EXPECT_EQ(scan.pool, 0);
  const TenantSpec& zip = cfg.tenants[1];
  EXPECT_EQ(zip.kind, TenantKind::kCompress);
  EXPECT_DOUBLE_EQ(zip.cap_mops, 0.25);
  EXPECT_EQ(zip.pool, 1);
}

TEST(TenantConfig, PoolsDefaultWhenOnlyTenantsGiven) {
  const TenantSetConfig cfg = MustParse("tenant=t0:sketch:1:1.0:512:0");
  ASSERT_EQ(cfg.pools.size(), 1u);
  EXPECT_EQ(cfg.pools[0], 2);
  EXPECT_EQ(cfg.tenants[0].kind, TenantKind::kSketch);
}

TEST(TenantConfig, SerializeRoundTripsAndIsAFixedPoint) {
  const TenantSetConfig cfg = MustParse(
      "cores=2:1,host_cores=2,seed=7,budget=0.05,"
      "tenant=victim:filter:1:0.3:2048:40,"
      "tenant=agg:compress:8:0.8:4096:0:0.2,"
      "tenant=kvtel:kv:2:0:1024:40");
  const std::string canon = cfg.Serialize();
  const TenantSetConfig reparsed = MustParse(canon);
  // parse -> serialize -> parse -> serialize converges immediately.
  EXPECT_EQ(reparsed.Serialize(), canon);
  ASSERT_EQ(reparsed.tenants.size(), cfg.tenants.size());
  for (size_t i = 0; i < cfg.tenants.size(); ++i) {
    EXPECT_EQ(reparsed.tenants[i].id, cfg.tenants[i].id);
    EXPECT_EQ(reparsed.tenants[i].kind, cfg.tenants[i].kind);
    EXPECT_EQ(reparsed.tenants[i].weight, cfg.tenants[i].weight);
    EXPECT_DOUBLE_EQ(reparsed.tenants[i].mops, cfg.tenants[i].mops);
    EXPECT_EQ(reparsed.tenants[i].item_bytes, cfg.tenants[i].item_bytes);
    EXPECT_DOUBLE_EQ(reparsed.tenants[i].slo_us, cfg.tenants[i].slo_us);
    EXPECT_DOUBLE_EQ(reparsed.tenants[i].cap_mops, cfg.tenants[i].cap_mops);
    EXPECT_EQ(reparsed.tenants[i].pool, cfg.tenants[i].pool);
  }
}

TEST(TenantConfig, JsonFileFormMatchesInline) {
  const std::string path = ::testing::TempDir() + "/tenants_test.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << R"({"cores":[2,4],"host_cores":3,"seed":9,"budget":0.1,
               "tenants":[
                 {"id":"scan0","kind":"filter","weight":2,"mops":0.3,
                  "bytes":2048,"slo_us":40},
                 {"id":"zip0","kind":"compress","weight":8,"mops":0.8,
                  "bytes":4096,"cap_mops":0.25,"pool":1}]})";
  }
  const TenantSetConfig json = MustParse("@" + path);
  const TenantSetConfig inl = MustParse(
      "cores=2:4,host_cores=3,seed=9,budget=0.1,"
      "tenant=scan0:filter:2:0.3:2048:40,"
      "tenant=zip0:compress:8:0.8:4096:0:0.25:1");
  EXPECT_EQ(json.Serialize(), inl.Serialize());
}

TEST(TenantConfig, UnknownKeysFailLoudly) {
  EXPECT_NE(MustFail("tenant=t0:sketch:1:1:512:0,frobnicate=1")
                .find("unknown tenant key"),
            std::string::npos);
  EXPECT_NE(MustFail("tenant=t0:wizard:1:1:512:0").find("unknown tenant kind"),
            std::string::npos);
}

TEST(TenantConfig, DuplicateTenantIdsRejected) {
  const std::string err =
      MustFail("tenant=t0:sketch:1:1:512:0,tenant=t0:filter:1:1:512:0");
  EXPECT_NE(err.find("duplicate tenant id"), std::string::npos);
}

TEST(TenantConfig, StructuralErrorsRejected) {
  MustFail("notkeyvalue");
  MustFail("tenant=t0:sketch:1:1:512");          // too few fields
  MustFail("tenant=t0:sketch:1:1:512:0:0:0:9");  // too many fields
  MustFail("tenant=t0:sketch:0:1:512:0");        // weight < 1
  MustFail("tenant=t0:sketch:1:1:0:0");          // bytes < 1
  MustFail("tenant=t0:sketch:1:1:512:0:0:3");    // pool out of range
  MustFail("cores=0,tenant=t0:sketch:1:1:512:0");  // bad pool size
  MustFail("budget=2,tenant=t0:sketch:1:1:512:0"); // budget > 1
  MustFail("tenant=bad/id:sketch:1:1:512:0");      // id charset
  MustFail("tenant=:sketch:1:1:512:0");            // empty id
  MustFail("@/nonexistent/tenants.json");          // unreadable file
  // Non-finite numbers, and numbers that overflow the field they land in.
  MustFail("tenant=t0:sketch:1:nan:512:0");         // mops
  MustFail("tenant=t0:sketch:1:1:512:nan");         // slo_us
  MustFail("tenant=t0:sketch:1:1:1e12:0");          // bytes past uint32_t
  MustFail("tenant=t0:sketch:1e10:1:512:0");        // weight past int
  MustFail("tenant=t0:sketch:1:1:512:1e13");        // SLO overflows the ps clock
  MustFail("seed=1e30,tenant=t0:sketch:1:1:512:0");  // seed past uint64_t
  MustFail("cores=1e10,tenant=t0:sketch:1:1:512:0"); // pool size past int
}

TEST(TenantConfig, JsonNegativeSpace) {
  auto json_fail = [](const std::string& body) {
    const std::string path = ::testing::TempDir() + "/tenants_neg.json";
    std::ofstream(path, std::ios::binary) << body;
    return MustFail("@" + path);
  };
  EXPECT_NE(json_fail(R"({"frobnicate":1})").find("unknown tenant-set key"),
            std::string::npos);
  EXPECT_NE(json_fail(R"({"tenants":[{"id":"a","kind":"kv","color":"red"}]})")
                .find("unknown tenant field"),
            std::string::npos);
  json_fail(R"({"tenants":[{"id":"a"}]})");  // missing kind
  json_fail(R"({"cores":[2]} trailing)");    // trailing characters
  // The strict-number reproducers in the JSON form.
  json_fail(R"({"tenants":[{"id":"a","kind":"sketch","mops":nan}]})");
  json_fail(R"({"tenants":[{"id":"a","kind":"sketch","slo_us":nan}]})");
  json_fail(R"({"tenants":[{"id":"a","kind":"sketch","bytes":1e12}]})");
  json_fail(R"({"tenants":[{"id":"a","kind":"sketch","weight":1e10}]})");
  json_fail(R"({"tenants":[{"id":"a","kind":"sketch","slo_us":1e13}]})");
  json_fail(R"({"seed":1e30,"tenants":[{"id":"a","kind":"sketch"}]})");
  json_fail(R"({"cores":[1e10],"tenants":[{"id":"a","kind":"sketch"}]})");
}

TEST(TenantConfig, DefaultStagesMatchKinds) {
  EXPECT_EQ(DefaultStages(TenantKind::kFilter)[0].op, StageOp::kScan);
  EXPECT_EQ(DefaultStages(TenantKind::kCompress)[0].op, StageOp::kCompress);
  EXPECT_EQ(DefaultStages(TenantKind::kSketch)[0].op, StageOp::kSketch);
  EXPECT_EQ(DefaultStages(TenantKind::kKv)[0].op, StageOp::kSketch);
  // Host-originated kinds enter on the host (and must cross to their SoC
  // stages); SoC-resident kinds are born there.
  TenantSpec f;
  f.kind = TenantKind::kFilter;
  EXPECT_EQ(EntryPlacement(f), Placement::kHost);
  TenantSpec s;
  s.kind = TenantKind::kSketch;
  EXPECT_EQ(EntryPlacement(s), Placement::kSoc);
}

}  // namespace
}  // namespace offload
}  // namespace snicsim
