#ifndef OCULAR_COMMON_FLAGS_H_
#define OCULAR_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/result.h"

namespace ocular {

/// \brief What a declared flag's value must be.
enum class FlagType {
  kString,   ///< any text; without a default it reads empty
  kChar,     ///< exactly one character
  kInt,      ///< a base-10 integer in [min_int, max_int]
  kReal,     ///< a finite number in [min_real, max_real]
  kBool,     ///< true|false, 1|0 or yes|no; a bare --name means true
  kChoice,   ///< one of `choices`
  kIntList,  ///< comma-separated integers, each in [min_int, max_int]
};

/// \brief One declared flag: its name, type, range or choices, default and
/// help. Build one with the *Flag functions below.
struct FlagSpec {
  std::string name;                  ///< without the leading "--"
  FlagType type = FlagType::kString; ///< what the value must be
  int64_t min_int = 0;               ///< kInt/kIntList lower bound
  int64_t max_int = 0;               ///< kInt/kIntList upper bound
  double min_real = 0.0;             ///< kReal lower bound
  double max_real = 0.0;             ///< kReal upper bound (or +inf)
  std::vector<std::string> choices;  ///< kChoice values
  std::string def;   ///< default as command-line text; "" for none
  std::string help;  ///< one line of usage text
};

/// \brief RealFlag's `max` for a flag without an upper bound.
inline constexpr double kNoUpperBound = std::numeric_limits<double>::infinity();

/// \brief A text flag.
inline FlagSpec StringFlag(std::string name, std::string def,
                           std::string help) {
  return {std::move(name), FlagType::kString, 0, 0, 0, 0, {},
          std::move(def), std::move(help)};
}
/// \brief A one-character flag, such as a delimiter.
inline FlagSpec CharFlag(std::string name, char def, std::string help) {
  return {std::move(name), FlagType::kChar, 0, 0, 0, 0, {},
          std::string(1, def), std::move(help)};
}
/// \brief An integer flag in [min, max].
inline FlagSpec IntFlag(std::string name, int64_t min, int64_t max,
                        std::string def, std::string help) {
  return {std::move(name), FlagType::kInt, min, max, 0, 0, {},
          std::move(def), std::move(help)};
}
/// \brief A finite real flag in [min, max].
inline FlagSpec RealFlag(std::string name, double min, double max,
                         std::string def, std::string help) {
  return {std::move(name), FlagType::kReal, 0, 0, min, max, {},
          std::move(def), std::move(help)};
}
/// \brief A bool flag.
inline FlagSpec BoolFlag(std::string name, bool def, std::string help) {
  return {std::move(name), FlagType::kBool, 0, 0, 0, 0, {},
          def ? "true" : "false", std::move(help)};
}
/// \brief A flag whose value is one of `choices`.
inline FlagSpec ChoiceFlag(std::string name, std::vector<std::string> choices,
                           std::string def, std::string help) {
  return {std::move(name), FlagType::kChoice, 0, 0, 0, 0, std::move(choices),
          std::move(def), std::move(help)};
}
/// \brief A list of integers, each in [min, max], without a default.
inline FlagSpec IntListFlag(std::string name, int64_t min, int64_t max,
                            std::string help) {
  return {std::move(name), FlagType::kIntList, min, max, 0, 0, {}, "",
          std::move(help)};
}

/// \brief A binary's (or one subcommand's) declared flags and the text of
/// its usage message.
struct FlagTable {
  std::string program;          ///< e.g. "ocular_served" or "ocular train"
  std::string summary;          ///< printed under the usage line
  std::vector<FlagSpec> flags;  ///< each name once
};

/// \brief The usage message generated from `table`: the program, its
/// summary, then each flag with its type, range or choices, default and
/// help.
std::string Usage(const FlagTable& table);

/// \brief The flags of one command line, checked against a FlagTable.
///
/// Grammar: "--name=value"; "--name value" for every type but bool; a
/// bare "--name" for a bool, which never consumes the next token. A later
/// repeat of a name replaces the earlier value. Every argument must be a
/// flag.
///
/// Each getter returns the command-line value of a declared flag of its
/// type or, when the flag was not given, its default. Reading an
/// undeclared name, a name as another type, or a flag with neither a
/// value nor a default is a program bug and aborts.
class Flags {
 public:
  /// \brief Parses argv[1, argc) against `table`. Fails with
  /// InvalidArgument, naming the flag and its range, when a value is not
  /// of its flag's type or range, and with ParseError when the command
  /// line breaks the grammar: an undeclared name, a stray token, a value
  /// missing at the end.
  static Result<Flags> Parse(const FlagTable& table, int argc,
                             const char* const* argv);

  /// \brief True when --name was given on the command line.
  bool Has(const std::string& name) const;
  /// \brief A kString or kChoice flag's text.
  const std::string& String(const std::string& name) const;
  /// \brief A kChar flag's character.
  char Char(const std::string& name) const;
  /// \brief A kInt flag's value as T, whose range must hold the flag's.
  template <typename T = int64_t>
  T Int(const std::string& name) const {
    const Value& v = Get(name, FlagType::kInt);
    OCULAR_CHECK(std::in_range<T>(v.spec.min_int) &&
                 std::in_range<T>(v.spec.max_int))
        << "--" << name << "'s range does not fit the type it is read as";
    return static_cast<T>(v.integer);
  }
  /// \brief A kReal flag's value.
  double Real(const std::string& name) const;
  /// \brief A kBool flag's value.
  bool Bool(const std::string& name) const;
  /// \brief A kIntList flag's entries.
  const std::vector<int64_t>& IntList(const std::string& name) const;

 private:
  struct Value {
    FlagSpec spec;
    bool given = false;  // on the command line
    bool set = false;    // given or defaulted
    std::string text;
    int64_t integer = 0;  // kInt, and kBool as 0 or 1
    double real = 0.0;
    std::vector<int64_t> list;

    // Checks `value` against the spec and stores it.
    Status Set(const std::string& value);
  };

  const Value& Get(const std::string& name, FlagType type) const;

  std::map<std::string, Value> values_;
};

/// \brief Parses like Flags::Parse and exits on failure: with 1 after
/// printing a bad value's message, with 2 after printing a grammar error
/// and the usage message (both to stderr).
Flags ParseFlagsOrExit(const FlagTable& table, int argc,
                       const char* const* argv);

/// \brief Prints the usage message to stderr; returns 2, the exit code of
/// a command line that breaks the grammar.
int PrintUsage(const FlagTable& table);

}  // namespace ocular

#endif  // OCULAR_COMMON_FLAGS_H_
