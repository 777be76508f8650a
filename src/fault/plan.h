// Declarative fault schedules.
//
// A FaultPlan is a pure description of the faults one experiment should see:
// a Bernoulli frame-drop probability on lossy (network) links, scheduled
// link flaps (total loss windows) and degradation windows (service-time
// multipliers), and compute stall windows keyed by fault-domain name. A
// fault domain is an endpoint's name ("bf_srv.soc", "rack.s1.host"; see
// DomainMatches for the bare "host"/"soc" spellings). Plans are parsed from the `--faults` flag — either an
// inline `key=value` spec or `@file.json` — and interpreted by the
// FaultInjector (src/fault/injector.h). Because the plan carries its own
// seed, a (plan, topology) pair fully determines every fault a run takes:
// replaying the same plan reproduces the run byte for byte.
#ifndef SRC_FAULT_PLAN_H_
#define SRC_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/units.h"

namespace snicsim {
namespace fault {

// Total loss on one link: every burst entering `link` in [start, end) is
// dropped, without consuming random draws (so a flap never perturbs the
// Bernoulli stream of the surviving traffic).
struct FlapWindow {
  std::string link;
  SimTime start = 0;
  SimTime end = 0;
};

// Service-time multiplier on one link: bursts submitted in [start, end)
// serialize `factor`× slower (a congested or rate-limited cable).
struct DegradeWindow {
  std::string link;
  SimTime start = 0;
  SimTime end = 0;
  double factor = 1.0;
};

// Compute stall on one fault domain (e.g. "soc", "rack.s1.soc"): work
// arriving in [start, end) is deferred to the window's end before it can
// start.
struct StallWindow {
  std::string domain;
  SimTime start = 0;
  SimTime end = 0;
};

// Endpoint crash on one fault domain (e.g. "soc", "rack.s1"): the endpoint is dead
// in [start, end) — arriving work is dropped without a reply and in-flight
// work dies with it (the transport sees it as loss and retransmits until
// the op's deadline or retry budget runs out). After restart at `end`, a
// cold cache is modeled for `rewarm` more time: SoC-resident lookups miss
// until end + rewarm.
struct CrashWindow {
  std::string domain;
  SimTime start = 0;
  SimTime end = 0;
  SimTime rewarm = 0;
};

// Permanent loss of one fault domain: from `at` onward the domain is dead
// forever — no restart, no rewarm. Addressed like crash windows (so
// "rack.s3" kills the whole server, host+SoC). The rack-level membership
// plane (src/topo/rack_kv.h) reacts by removing the server from the ring
// and migrating its key ranges; single-server topologies just see an
// endpoint that never comes back.
struct PermLossEvent {
  std::string domain;
  SimTime at = 0;
};

// Stored-data corruption on one fault domain: at time `at`, each value the
// domain stores flips bits with probability `fraction` (chosen by a
// deterministic hash of (plan seed, domain, key) — no RNG draws, so a
// corrupt event never shifts any other stream). Detection is by the
// per-value corrupt flags in the rack integrity layer; components without an
// integrity store ignore the event.
struct CorruptEvent {
  std::string domain;
  SimTime at = 0;
  double fraction = 0.05;
};

struct FaultPlan {
  // Per-frame drop probability on lossy links (network ports only).
  double drop_rate = 0.0;
  // Seeds the per-link Bernoulli streams (each link derives its own stream,
  // so adding a link never shifts another link's draws).
  uint64_t seed = 1;
  std::vector<FlapWindow> flaps;
  std::vector<DegradeWindow> degrades;
  std::vector<StallWindow> stalls;
  std::vector<CrashWindow> crashes;
  std::vector<PermLossEvent> permlosses;
  std::vector<CorruptEvent> corrupts;

  // An empty plan injects nothing; the harness then skips creating an
  // injector entirely so the simulation is bit-identical to a fault-free
  // build.
  bool empty() const {
    return drop_rate == 0.0 && flaps.empty() && degrades.empty() &&
           stalls.empty() && crashes.empty() && permlosses.empty() &&
           corrupts.empty();
  }
};

// Does a plan's domain spec apply to a component asking about `query`?
// Every component queries with the name of the endpoint it runs behind
// ("<server>.host" / "<server>.soc": "bf_srv.soc" on a single-server
// testbed, "rack.s3.soc" in a rack). Matching is hierarchical over
// dot-separated names:
//   * exact:       plan "rack.s3.soc" matches query "rack.s3.soc"
//   * leaf alias:  plan "soc" matches query "rack.s3.soc" and "bf_srv.soc"
//     (the bare spelling addresses every SoC endpoint)
//   * subtree:     plan "rack.s3" matches query "rack.s3.host" and
//     "rack.s3.soc" (a whole-server crash)
// The reverse is never true: plan "rack.s3.soc" does NOT match a query of
// plain "soc", and a plan scoped to one server never reaches another.
bool DomainMatches(const std::string& plan_domain, const std::string& query);

// Parses `spec` into `*out`. DOMAIN is a fault domain (an endpoint name
// or a prefix or leaf of one, per DomainMatches); LINK is a link name
// ("bf_srv.port"). Two forms:
//   inline:  "drop=0.01,seed=7,flap=LINK:START:END,degrade=LINK:START:END:F,
//             stall=DOMAIN:START:END,crash=DOMAIN:START:END[:REWARM],
//             permloss=DOMAIN:AT,corrupt=DOMAIN:AT[:FRACTION]"
//             (times in microseconds; keys repeat for multiple windows;
//             ',' and ';' both separate entries). A bare number with no
//             key at all — "0.02" — is shorthand for "drop=0.02".
//   file:    "@schedule.json" with
//             {"drop":0.01,"seed":7,
//              "flaps":[{"link":"...","start_us":10,"end_us":20}],
//              "degrades":[{"link":"...","start_us":0,"end_us":50,"factor":4}],
//              "stalls":[{"domain":"soc","start_us":10,"end_us":60}],
//              "crashes":[{"domain":"soc","start_us":10,"end_us":60,
//                          "rewarm_us":30}],
//              "permlosses":[{"domain":"rack.s1","at_us":80}],
//              "corrupts":[{"domain":"rack.s2","at_us":120,"fraction":0.1}]}
// Returns false (and sets `*error`) on malformed input: an unknown key or
// field, or a number that is non-finite or does not fit its field (the
// spec core, src/common/spec.h).
bool ParseFaultPlan(const std::string& spec, FaultPlan* out, std::string* error);

// Registers `--faults` on `flags` and returns the parsed plan (empty when
// the flag is unset). Aborts with the parse error on a malformed spec, like
// the rest of the flag layer does for bad values.
FaultPlan FaultsFlag(Flags& flags);

}  // namespace fault
}  // namespace snicsim

#endif  // SRC_FAULT_PLAN_H_
