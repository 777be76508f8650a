#include "src/fault/plan.h"

#include "src/common/spec.h"

namespace snicsim {
namespace fault {

namespace {

// Checks one window record: a non-empty target and END >= START >= 0 (us),
// both on the simulated clock.
bool Window(spec::Value& v, const std::string& target, double start_us,
            double end_us, SimTime* start, SimTime* end) {
  if (target.empty() || end_us < start_us || !spec::MicrosToTime(start_us, start) ||
      !spec::MicrosToTime(end_us, end)) {
    return v.Fail("want a name and END >= START >= 0 (us)");
  }
  return true;
}

}  // namespace

bool DomainMatches(const std::string& plan_domain, const std::string& query) {
  if (plan_domain == query) {
    return true;
  }
  const size_t pd = plan_domain.size();
  const size_t q = query.size();
  if (pd >= q) {
    return false;  // a longer (more scoped) plan name never widens
  }
  // Leaf alias: plan "soc" vs query "rack.s3.soc" — the plan name must be a
  // whole trailing segment, so "oc" or "s3.soc" never match by accident.
  if (query.compare(q - pd, pd, plan_domain) == 0 && query[q - pd - 1] == '.') {
    return true;
  }
  // Subtree: plan "rack.s3" vs query "rack.s3.soc" — a whole leading
  // segment run addresses every endpoint under it.
  return query.compare(0, pd, plan_domain) == 0 && query[pd] == '.';
}

bool ParseFaultPlan(const std::string& text, FaultPlan* out, std::string* error) {
  *out = FaultPlan();
  error->clear();
  // Bare-number shorthand: "--faults=0.02" means "drop=0.02". Only when the
  // whole spec is one number — a key-less entry inside a longer spec is
  // still an error.
  double rate = 0.0;
  if (spec::ParseNumber(text, &rate) && rate >= 0.0 && rate <= 1.0) {
    out->drop_rate = rate;
    return true;
  }
  // One reader per record kind, shared by the inline tuple and the JSON
  // object form; times arrive in microseconds (-1 marks a missing field).
  const auto flap = [out](spec::Value& v) {
    FlapWindow w;
    double su = -1.0;
    double eu = -1.0;
    if (!v.ReadRecord({{"link", &w.link}, {"start_us", &su}, {"end_us", &eu}}, 3) ||
        !Window(v, w.link, su, eu, &w.start, &w.end)) {
      return false;
    }
    out->flaps.push_back(w);
    return true;
  };
  const auto degrade = [out](spec::Value& v) {
    DegradeWindow w;
    double su = -1.0;
    double eu = -1.0;
    w.factor = 0.0;
    if (!v.ReadRecord(
            {{"link", &w.link}, {"start_us", &su}, {"end_us", &eu}, {"factor", &w.factor}}, 4) ||
        !Window(v, w.link, su, eu, &w.start, &w.end)) {
      return false;
    }
    if (w.factor < 1.0) {
      return v.Fail("factor must be >= 1");
    }
    out->degrades.push_back(w);
    return true;
  };
  const auto stall = [out](spec::Value& v) {
    StallWindow w;
    double su = -1.0;
    double eu = -1.0;
    if (!v.ReadRecord({{"domain", &w.domain}, {"start_us", &su}, {"end_us", &eu}}, 3) ||
        !Window(v, w.domain, su, eu, &w.start, &w.end)) {
      return false;
    }
    out->stalls.push_back(w);
    return true;
  };
  const auto crash = [out](spec::Value& v) {
    CrashWindow w;
    double su = -1.0;
    double eu = -1.0;
    double rw = 0.0;
    if (!v.ReadRecord(
            {{"domain", &w.domain}, {"start_us", &su}, {"end_us", &eu}, {"rewarm_us", &rw}}, 3) ||
        !Window(v, w.domain, su, eu, &w.start, &w.end)) {
      return false;
    }
    if (!spec::MicrosToTime(rw, &w.rewarm)) {
      return v.Fail("rewarm must be >= 0 (us)");
    }
    out->crashes.push_back(w);
    return true;
  };
  const auto permloss = [out](spec::Value& v) {
    PermLossEvent ev;
    double au = -1.0;
    if (!v.ReadRecord({{"domain", &ev.domain}, {"at_us", &au}}, 2)) {
      return false;
    }
    if (ev.domain.empty() || !spec::MicrosToTime(au, &ev.at)) {
      return v.Fail("want a domain and AT >= 0 (us)");
    }
    out->permlosses.push_back(ev);
    return true;
  };
  const auto corrupt = [out](spec::Value& v) {
    CorruptEvent ev;
    double au = -1.0;
    if (!v.ReadRecord({{"domain", &ev.domain}, {"at_us", &au}, {"fraction", &ev.fraction}}, 2)) {
      return false;
    }
    if (ev.domain.empty() || !spec::MicrosToTime(au, &ev.at) || ev.fraction <= 0.0 ||
        ev.fraction > 1.0) {
      return v.Fail("want a domain, AT >= 0 (us) and FRACTION in (0, 1]");
    }
    out->corrupts.push_back(ev);
    return true;
  };
  const spec::Grammar grammar{"fault",
                              "schedule",
                              {spec::Scalar("drop", &out->drop_rate),
                               spec::Scalar("seed", &out->seed),
                               spec::Records("flap", "flaps", flap),
                               spec::Records("degrade", "degrades", degrade),
                               spec::Records("stall", "stalls", stall),
                               spec::Records("crash", "crashes", crash),
                               spec::Records("permloss", "permlosses", permloss),
                               spec::Records("corrupt", "corrupts", corrupt)}};
  if (!spec::Parse(text, grammar, error)) {
    return false;
  }
  if (out->drop_rate < 0.0 || out->drop_rate > 1.0) {
    *error = "drop rate " + FmtDouble(out->drop_rate) + " not in [0, 1]";
    return false;
  }
  return true;
}

FaultPlan FaultsFlag(Flags& flags) {
  return spec::ParseFlag<FaultPlan>(
      flags, "faults",
      "fault schedule: drop=P,seed=S,flap=LINK:START:END,"
      "degrade=LINK:START:END:FACTOR,stall=DOMAIN:START:END,"
      "crash=DOMAIN:START:END[:REWARM],permloss=DOMAIN:AT,"
      "corrupt=DOMAIN:AT[:FRACTION] (us), a bare drop rate, or @file.json",
      ParseFaultPlan);
}

}  // namespace fault
}  // namespace snicsim
