// One core for the declarative spec grammars — `--faults`
// (src/fault/plan.h), `--tenants` (src/offload/tenant_config.h) and
// `--load-trace` (src/workload/trace/trace.h) — plus the canonical text
// form their Serialize() and every result Fingerprint() share.
//
// A grammar is a table of keys, and each key reads one value through the
// form-neutral `Value` interface, so one declaration serves both forms:
//   inline:  "key=value,key=A:B:C;..." — entries split on ',' or ';'
//            (whitespace dropped); a record's fields split on ':' and bind
//            to the record's fields by position;
//   file:    "@path.json" — one JSON object whose keys are the scalars and
//            arrays of flat objects keyed by the same field names.
// Both forms are strict: an unknown key or field, a second value for a key
// that is not a record, a trailing character, a malformed or non-finite
// number, and a number that does not fit the field it lands in (seed into
// uint64_t, bytes into uint32_t, ...) all fail the parse with a message — a
// typo'd spec must never silently run with defaults. Fractional values in
// integer fields truncate toward zero.
//
// Include this header from .cc files only: its short helper names stay out
// of the public headers' namespaces.
#ifndef SRC_COMMON_SPEC_H_
#define SRC_COMMON_SPEC_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/units.h"

namespace snicsim {

// ---------------------------------------------------------------------------
// Canonical text form. Doubles print as "%.17g", enough digits to round-trip
// any double exactly: a serialized spec re-parses to the same bits, and a
// fingerprint changes iff a value does.

inline std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Fingerprint fields: each value followed by '|'.
inline void AppendU(std::string* s, uint64_t v) {
  s->append(std::to_string(v));
  s->push_back('|');
}

inline void AppendD(std::string* s, double v) {
  s->append(FmtDouble(v));
  s->push_back('|');
}

// One row of a declared counter table: floating point through AppendD, any
// other arithmetic type through AppendU, a vector element by element.
template <typename T>
void AppendCounter(std::string* s, T v) {
  if constexpr (std::is_floating_point_v<T>) {
    AppendD(s, v);
  } else {
    AppendU(s, static_cast<uint64_t>(v));
  }
}

template <typename T>
void AppendCounter(std::string* s, const std::vector<T>& v) {
  for (const T& x : v) {
    AppendCounter(s, x);
  }
}

// 64-bit FNV-1a over a name: derives per-name stream salts and offsets that
// never depend on the order names were seen in.
inline uint64_t Fnv1a(const std::string& s) {
  uint64_t h = kFnvOffset;
  for (char c : s) {
    h = (h ^ static_cast<uint64_t>(static_cast<unsigned char>(c))) * kFnvPrime;
  }
  return h;
}

namespace spec {

// Splits on ',' and ';' (both accepted so window lists read naturally),
// dropping whitespace and empty entries.
std::vector<std::string> SplitEntries(const std::string& s);

// Splits on `sep`, keeping empty fields ("a::b" has three).
std::vector<std::string> SplitFields(const std::string& s, char sep);

// Strict number: all of `s` is one finite number.
bool ParseNumber(const std::string& s, double* out);

// Microseconds to simulated time, exactly as FromMicros converts them;
// false for a negative time or one past the picosecond clock's range.
bool MicrosToTime(double us, SimTime* out);

// Where a value lands. Numbers are range-checked against the target type.
using Slot = std::variant<std::string*, double*, int*, uint32_t*, uint64_t*>;

// One named field of a record: its JSON key, and (by position in the
// record's field list) its inline ':' slot.
struct Field {
  const char* key;
  Slot slot;
};

// One key's value during a parse, in whichever form the spec was written.
class Value {
 public:
  virtual ~Value() = default;
  // A scalar into `slot`.
  virtual bool Read(const Slot& slot) = 0;
  // Integers: inline "A:B:C" or a JSON array.
  virtual bool ReadList(std::vector<int>* out) = 0;
  // A record: inline positional "A:B[:C]" with at least `required` fields,
  // or a JSON flat object keyed by the field names. Fields the spec leaves
  // out keep the values their slots already hold.
  virtual bool ReadRecord(const std::vector<Field>& fields, size_t required) = 0;
  // Fails the parse with `what`, located at this value. Always false.
  virtual bool Fail(const std::string& what) = 0;
};

struct Key {
  std::string name;       // inline key
  std::string json_name;  // JSON key
  std::string label;      // what one value is called in messages
  // A records key: given any number of times, and in JSON an array read once
  // per element. Any other key takes one value; a second one fails the parse.
  bool repeated = false;
  std::function<bool(Value&)> read;
};

// A scalar key; `json_name` defaults to `name`.
Key Scalar(const std::string& name, Slot slot, const std::string& json_name = "");
// A list of integers (":"-separated inline, an array in JSON).
Key List(const std::string& name, std::vector<int>* out);
// A repeatable record key: one inline "name=A:B:C" entry per record, one
// JSON "json_name":[{...},...] array for all of them. `label` (default
// `name`) names one record in messages.
Key Records(const std::string& name, const std::string& json_name,
            std::function<bool(Value&)> read, const std::string& label = "");

struct Grammar {
  std::string noun;       // inline messages: "unknown <noun> key 'k'"
  std::string file_noun;  // file messages: "unknown <file_noun> key 'k'"
  std::vector<Key> keys;
};

// Parses `text` (empty, inline, or "@path.json") through `grammar`. An empty
// text reads nothing and succeeds.
bool Parse(const std::string& text, const Grammar& grammar, std::string* error);

[[noreturn]] void ExitBadFlag(const std::string& name, const std::string& error);

// Registers --name, parses its value with `parse`, and returns the plan; on
// malformed input prints "--name: <error>" and exits 2, like the rest of the
// flag layer does for bad values.
template <typename Plan>
Plan ParseFlag(Flags& flags, const std::string& name, const std::string& help,
               bool (*parse)(const std::string&, Plan*, std::string*)) {
  Plan plan;
  std::string error;
  if (!parse(flags.GetString(name, "", help), &plan, &error)) {
    ExitBadFlag(name, error);
  }
  return plan;
}

// Registers --name as an output file path and returns it ("" when unset).
// A set path is probed for writing at parse time, so an unwritable one exits
// 2 with "--name: cannot write '<path>'" before a sweep runs, not after it.
std::string OutputPathFlag(Flags& flags, const std::string& name, const std::string& help);

}  // namespace spec
}  // namespace snicsim

#endif  // SRC_COMMON_SPEC_H_
