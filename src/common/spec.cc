#include "src/common/spec.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <type_traits>
#include <utility>

namespace snicsim {
namespace spec {

namespace {

// Reads one finite number at the start of `s`; returns its length, or 0 when
// `s` does not start with one. The one number reader of both forms.
size_t ReadFinite(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  if (end == s || !std::isfinite(*out)) {
    return 0;
  }
  return static_cast<size_t>(end - s);
}

// Truncates `v` toward zero into T; false when the result would not fit.
// Both bounds are exact in a double (max() + 1 is a power of two, and for
// 64-bit types the cast of max() already rounds up to it).
template <typename T>
bool ToInteger(double v, T* out) {
  using L = std::numeric_limits<T>;
  if (!(v >= static_cast<double>(L::min()) &&
        v < static_cast<double>(L::max()) + 1.0)) {
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

// Stores a number into a numeric slot, range-checked for its type.
bool Store(const Slot& slot, double v) {
  return std::visit(
      [v](auto* p) {
        using T = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return false;
        } else if constexpr (std::is_same_v<T, double>) {
          *p = v;
          return true;
        } else {
          return ToInteger(v, p);
        }
      },
      slot);
}

bool IsString(const Slot& slot) {
  return std::holds_alternative<std::string*>(slot);
}

// "ID:KIND[:CAP[:POOL]]" from the field keys.
std::string Usage(const std::vector<Field>& fields, size_t required) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    out += i < required ? (i > 0 ? ":" : "") : "[:";
    for (const char* c = fields[i].key; *c != '\0'; ++c) {
      out.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(*c))));
    }
  }
  return out + std::string(fields.size() - required, ']');
}

// Minimal JSON scanner: objects, arrays, numbers, and strings without
// escapes — what the schemas need, and no more. Anything else fails loudly.
struct JsonScanner {
  const std::string& text;
  size_t pos = 0;
  std::string* error;

  JsonScanner(const std::string& t, std::string* e) : text(t), error(e) {}

  void SkipWs() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  bool Fail(const std::string& what) {
    *error = what + " at offset " + std::to_string(pos);
    return false;
  }
  bool Peek(char c) {
    SkipWs();
    return pos < text.size() && text[pos] == c;
  }
  bool Expect(char c) {
    if (!Peek(c)) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos;
    return true;
  }
  bool ReadString(std::string* out) {
    if (!Expect('"')) {
      return false;
    }
    out->clear();
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') {
        return Fail("escapes not supported in spec strings");
      }
      out->push_back(text[pos++]);
    }
    if (pos >= text.size()) {
      return Fail("unterminated string");
    }
    ++pos;
    return true;
  }
  bool ReadNumber(double* out) {
    SkipWs();
    const size_t n = ReadFinite(text.c_str() + pos, out);
    if (n == 0) {
      return Fail("expected a finite number");
    }
    pos += n;
    return true;
  }
  // Reads `open` item (',' item)* `close`, or an empty `open` `close`.
  template <typename F>
  bool ReadSequence(char open, char close, F item) {
    if (!Expect(open)) {
      return false;
    }
    if (Peek(close)) {
      ++pos;
      return true;
    }
    for (;;) {
      if (!item()) {
        return false;
      }
      if (Peek(',')) {
        ++pos;
        continue;
      }
      return Expect(close);
    }
  }
};

class JsonValue : public Value {
 public:
  JsonValue(JsonScanner* s, const Key& key) : s_(s), key_(key) {}

  bool Read(const Slot& slot) override { return ReadInto(slot, ""); }

  bool ReadList(std::vector<int>* out) override {
    out->clear();
    return s_->ReadSequence('[', ']', [&] {
      double v = 0.0;
      int n = 0;
      if (!s_->ReadNumber(&v)) {
        return false;
      }
      if (!ToInteger(v, &n)) {
        return Fail(FmtDouble(v) + " is not an int");
      }
      out->push_back(n);
      return true;
    });
  }

  bool ReadRecord(const std::vector<Field>& fields, size_t) override {
    return s_->ReadSequence('{', '}', [&] {
      std::string k;
      if (!s_->ReadString(&k) || !s_->Expect(':')) {
        return false;
      }
      for (const Field& f : fields) {
        if (k != f.key) {
          continue;
        }
        if (s_->Peek('"') != IsString(f.slot)) {
          return s_->Fail(key_.label + " field '" + k + "' must be a " +
                          (IsString(f.slot) ? "string" : "number"));
        }
        return ReadInto(f.slot, k);
      }
      return s_->Fail("unknown " + key_.label + " field '" + k + "'");
    });
  }

  bool Fail(const std::string& what) override {
    return s_->Fail(key_.label + ": " + what);
  }

 private:
  bool ReadInto(const Slot& slot, const std::string& field) {
    if (IsString(slot)) {
      return s_->ReadString(std::get<std::string*>(slot));
    }
    double v = 0.0;
    if (!s_->ReadNumber(&v)) {
      return false;
    }
    return Store(slot, v) ||
           Fail((field.empty() ? "" : field + " ") + FmtDouble(v) + " does not fit the field");
  }

  JsonScanner* s_;
  const Key& key_;
};

class InlineValue : public Value {
 public:
  InlineValue(const Key& key, std::string text, std::string* error)
      : key_(key), text_(std::move(text)), error_(error) {}

  bool Read(const Slot& slot) override { return Assign(slot, text_, ""); }

  bool ReadList(std::vector<int>* out) override {
    out->clear();
    for (const std::string& f : SplitFields(text_, ':')) {
      double v = 0.0;
      int n = 0;
      if (!ParseNumber(f, &v) || !ToInteger(v, &n)) {
        return Fail("'" + f + "' is not an int");
      }
      out->push_back(n);
    }
    return true;
  }

  bool ReadRecord(const std::vector<Field>& fields, size_t required) override {
    const std::vector<std::string> f = SplitFields(text_, ':');
    if (f.size() < required || f.size() > fields.size()) {
      return Fail("want " + Usage(fields, required));
    }
    for (size_t i = 0; i < f.size(); ++i) {
      if (!Assign(fields[i].slot, f[i], fields[i].key)) {
        return false;
      }
    }
    return true;
  }

  bool Fail(const std::string& what) override {
    *error_ = key_.name + " '" + text_ + "': " + what;
    return false;
  }

 private:
  bool Assign(const Slot& slot, const std::string& s, const std::string& field) {
    if (IsString(slot)) {
      *std::get<std::string*>(slot) = s;
      return true;
    }
    double v = 0.0;
    if (ParseNumber(s, &v) && Store(slot, v)) {
      return true;
    }
    return Fail(field.empty() ? "not a finite number that fits the field"
                              : field + " '" + s + "' is not a finite number that fits the field");
  }

  const Key& key_;
  std::string text_;
  std::string* error_;
};

const Key* FindKey(const Grammar& g, const std::string& name, bool json) {
  for (const Key& k : g.keys) {
    if ((json ? k.json_name : k.name) == name) {
      return &k;
    }
  }
  return nullptr;
}

bool ParseJson(const std::string& text, const Grammar& g, std::string* error) {
  JsonScanner s(text, error);
  std::set<const Key*> seen;  // keys that take one value, once given
  const bool ok = s.ReadSequence('{', '}', [&] {
    std::string name;
    if (!s.ReadString(&name) || !s.Expect(':')) {
      return false;
    }
    const Key* key = FindKey(g, name, /*json=*/true);
    if (key == nullptr) {
      return s.Fail("unknown " + g.file_noun + " key '" + name + "'");
    }
    if (!key->repeated && !seen.insert(key).second) {
      return s.Fail("repeated " + g.file_noun + " key '" + name + "'");
    }
    JsonValue v(&s, *key);
    if (key->repeated) {
      return s.ReadSequence('[', ']', [&] { return key->read(v); });
    }
    return key->read(v);
  });
  if (!ok) {
    return false;
  }
  s.SkipWs();
  return s.pos == text.size() ||
         s.Fail("trailing characters after " + g.file_noun + " object");
}

}  // namespace

std::vector<std::string> SplitEntries(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',' || c == ';') {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) {
    out.push_back(cur);
  }
  return out;
}

std::vector<std::string> SplitFields(const std::string& s, char sep) {
  std::vector<std::string> out(1);
  for (char c : s) {
    if (c == sep) {
      out.emplace_back();
    } else {
      out.back().push_back(c);
    }
  }
  return out;
}

bool ParseNumber(const std::string& s, double* out) {
  return !s.empty() && ReadFinite(s.c_str(), out) == s.size();
}

bool MicrosToTime(double us, SimTime* out) {
  return us >= 0.0 && ToInteger(us * kMicros, out);
}

Key Scalar(const std::string& name, Slot slot, const std::string& json_name) {
  return Key{name, json_name.empty() ? name : json_name, name, false,
             [slot](Value& v) { return v.Read(slot); }};
}

Key List(const std::string& name, std::vector<int>* out) {
  return Key{name, name, name, false, [out](Value& v) { return v.ReadList(out); }};
}

Key Records(const std::string& name, const std::string& json_name,
            std::function<bool(Value&)> read, const std::string& label) {
  return Key{name, json_name, label.empty() ? name : label, true, std::move(read)};
}

bool Parse(const std::string& text, const Grammar& grammar, std::string* error) {
  if (text.empty()) {
    return true;
  }
  if (text[0] == '@') {
    const std::string path = text.substr(1);
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) {
      *error = "cannot read " + grammar.file_noun + " file '" + path + "'";
      return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return ParseJson(buf.str(), grammar, error);
  }
  std::set<const Key*> seen;
  for (const std::string& entry : SplitEntries(text)) {
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      *error = grammar.noun + " entry '" + entry + "' is not key=value";
      return false;
    }
    const std::string name = entry.substr(0, eq);
    const Key* key = FindKey(grammar, name, /*json=*/false);
    if (key == nullptr) {
      *error = "unknown " + grammar.noun + " key '" + name + "'";
      return false;
    }
    if (!key->repeated && !seen.insert(key).second) {
      *error = "repeated " + grammar.noun + " key '" + name + "'";
      return false;
    }
    InlineValue v(*key, entry.substr(eq + 1), error);
    if (!key->read(v)) {
      return false;
    }
  }
  return true;
}

void ExitBadFlag(const std::string& name, const std::string& error) {
  std::fprintf(stderr, "--%s: %s\n", name.c_str(), error.c_str());
  std::exit(2);
}

std::string OutputPathFlag(Flags& flags, const std::string& name, const std::string& help) {
  const std::string path = flags.GetString(name, "", help);
  if (path.empty()) {
    return path;
  }
  // Probe with an append open, then remove the file if the probe made it.
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    ExitBadFlag(name, "cannot write '" + path + "'");
  }
  std::fclose(f);
  if (!existed) {
    std::remove(path.c_str());
  }
  return path;
}

}  // namespace spec
}  // namespace snicsim
