#include "common/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/strings.h"

namespace ocular {

namespace {

/// Shortest text that reads back as the same double ("0.02", "inf").
std::string RealText(double value) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

std::string IntRange(const FlagSpec& spec) {
  return "[" + std::to_string(spec.min_int) + ", " +
         std::to_string(spec.max_int) + "]";
}

std::string RealRange(const FlagSpec& spec) {
  return "[" + RealText(spec.min_real) + ", " + RealText(spec.max_real) +
         (std::isinf(spec.max_real) ? ")" : "]");
}

/// One integer of `spec`'s range; `what` names it in the error.
Result<int64_t> CheckedInt(const FlagSpec& spec, std::string_view text,
                           const std::string& what) {
  const Result<int64_t> value = ParseInt64(text);
  if (!value.ok() || *value < spec.min_int || *value > spec.max_int) {
    return Status::InvalidArgument(what + " is not an integer in " +
                                   IntRange(spec));
  }
  return *value;
}

/// The "=TYPE" part of a flag's usage line.
std::string ValueText(const FlagSpec& spec) {
  switch (spec.type) {
    case FlagType::kString:
      return "=TEXT";
    case FlagType::kChar:
      return "=CHAR";
    case FlagType::kInt:
      return "=INT in " + IntRange(spec);
    case FlagType::kReal:
      return "=REAL in " + RealRange(spec);
    case FlagType::kBool:
      return "[=BOOL]";
    case FlagType::kChoice:
      return "=" + Join(spec.choices, "|");
    case FlagType::kIntList:
      return "=INT,... in " + IntRange(spec);
  }
  return "";
}

}  // namespace

std::string Usage(const FlagTable& table) {
  std::string out = "usage: " + table.program + " [flags]\n";
  if (!table.summary.empty()) out += table.summary + "\n";
  out += "\nflags:\n";
  for (const FlagSpec& spec : table.flags) {
    out += "  --" + spec.name + ValueText(spec);
    if (!spec.def.empty()) {
      out += " (default " + (spec.def == "\t" ? "tab" : spec.def) + ")";
    }
    out += "\n      " + spec.help + "\n";
  }
  return out;
}

Status Flags::Value::Set(const std::string& value) {
  const std::string what = "--" + spec.name + "=" + value;
  switch (spec.type) {
    case FlagType::kString:
      break;
    case FlagType::kChar:
      if (value.size() != 1) {
        return Status::InvalidArgument("--" + spec.name + "='" + value +
                                       "' is not one character");
      }
      break;
    case FlagType::kInt: {
      OCULAR_ASSIGN_OR_RETURN(integer, CheckedInt(spec, value, what));
      break;
    }
    case FlagType::kReal: {
      const Result<double> r = ParseDouble(value);
      if (!r.ok() || !std::isfinite(*r) || *r < spec.min_real ||
          *r > spec.max_real) {
        return Status::InvalidArgument(what + " is not a finite number in " +
                                       RealRange(spec));
      }
      real = *r;
      break;
    }
    case FlagType::kBool: {
      const bool yes = value == "true" || value == "1" || value == "yes";
      if (!yes && value != "false" && value != "0" && value != "no") {
        return Status::InvalidArgument(what +
                                       " is not true|false, 1|0 or yes|no");
      }
      integer = yes;
      break;
    }
    case FlagType::kChoice:
      if (std::find(spec.choices.begin(), spec.choices.end(), value) ==
          spec.choices.end()) {
        return Status::InvalidArgument(what + " is not one of " +
                                       Join(spec.choices, "|"));
      }
      break;
    case FlagType::kIntList:
      list.clear();
      for (std::string_view entry : Split(value, ',')) {
        const std::string entry_what =
            "--" + spec.name + " entry '" + std::string(entry) + "'";
        OCULAR_ASSIGN_OR_RETURN(const int64_t id,
                                CheckedInt(spec, entry, entry_what));
        list.push_back(id);
      }
      break;
  }
  text = value;
  set = true;
  return Status::OK();
}

Result<Flags> Flags::Parse(const FlagTable& table, int argc,
                           const char* const* argv) {
  Flags flags;
  for (const FlagSpec& spec : table.flags) {
    OCULAR_CHECK(flags.values_.emplace(spec.name, Value{spec}).second)
        << "flag --" << spec.name << " is declared twice";
  }
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (!StartsWith(arg, "--") || arg.size() == 2) {
      return Status::ParseError("stray argument '" + arg + "'");
    }
    const size_t eq = arg.find('=');
    const std::string name =
        arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    const auto it = flags.values_.find(name);
    if (it == flags.values_.end()) {
      return Status::ParseError("unknown flag --" + name);
    }
    Value& v = it->second;
    const bool is_bool = v.spec.type == FlagType::kBool;
    if (eq == std::string::npos && !is_bool && a + 1 == argc) {
      return Status::ParseError("--" + name + " needs a value");
    }
    OCULAR_RETURN_IF_ERROR(v.Set(eq != std::string::npos ? arg.substr(eq + 1)
                                 : is_bool              ? "true"
                                                        : argv[++a]));
    v.given = true;
  }
  // Defaults go through the same check as typed values.
  for (auto& [name, v] : flags.values_) {
    if (v.given || v.spec.def.empty()) continue;
    const Status st = v.Set(v.spec.def);
    OCULAR_CHECK(st.ok()) << "default of --" << name << ": " << st.message();
  }
  return flags;
}

const Flags::Value& Flags::Get(const std::string& name, FlagType type) const {
  const auto it = values_.find(name);
  OCULAR_CHECK(it != values_.end()) << "flag --" << name << " is not declared";
  const Value& v = it->second;
  // A choice reads as its text.
  OCULAR_CHECK(v.spec.type == type || (type == FlagType::kString &&
                                       v.spec.type == FlagType::kChoice))
      << "flag --" << name << " is read as another type";
  // Text or a list not given reads empty; other types need a value.
  OCULAR_CHECK(v.set || type == FlagType::kString ||
               type == FlagType::kIntList)
      << "flag --" << name << " has no value";
  return v;
}

bool Flags::Has(const std::string& name) const {
  const auto it = values_.find(name);
  OCULAR_CHECK(it != values_.end()) << "flag --" << name << " is not declared";
  return it->second.given;
}

const std::string& Flags::String(const std::string& name) const {
  return Get(name, FlagType::kString).text;
}

char Flags::Char(const std::string& name) const {
  return Get(name, FlagType::kChar).text[0];
}

double Flags::Real(const std::string& name) const {
  return Get(name, FlagType::kReal).real;
}

bool Flags::Bool(const std::string& name) const {
  return Get(name, FlagType::kBool).integer != 0;
}

const std::vector<int64_t>& Flags::IntList(const std::string& name) const {
  return Get(name, FlagType::kIntList).list;
}

int PrintUsage(const FlagTable& table) {
  std::fprintf(stderr, "%s", Usage(table).c_str());
  return 2;
}

Flags ParseFlagsOrExit(const FlagTable& table, int argc,
                       const char* const* argv) {
  Result<Flags> flags = Flags::Parse(table, argc, argv);
  if (flags.ok()) return std::move(flags).value();
  std::fprintf(stderr, "%s: %s\n", table.program.c_str(),
               flags.status().message().c_str());
  if (!flags.status().IsParseError()) std::exit(1);
  std::fprintf(stderr, "\n");
  std::exit(PrintUsage(table));
}

}  // namespace ocular
