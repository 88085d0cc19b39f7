// The run-setting table: one row per RunSpec knob with its CLI flag, env
// var, help text, parse + check and destination field. The rows drive
// with_env_knobs (harness/runner.h), fedtiny_cli's flags and --help, and the
// check Experiment::run applies to every spec.
//
// One precedence rule holds for every row:
//   CLI flag > explicit spec value > env var > RunSpec{} default.
// An env var fills a field only while it still holds its default. Numbers
// must parse completely. A bad env value warns on stderr and is ignored.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.h"

namespace fedtiny::harness {

struct Knob {
  const char* flag;  ///< CLI flag; nullptr for an env-only row.
  const char* env;   ///< Env var; nullptr for a flag-only row.
  const char* arg;   ///< --help placeholder; nullptr for a switch (no value, sets 1).
  const char* help;
  std::string domain;  ///< Accepted values: "(0, 1]", "fedavg|norm_clip|...".
  /// Stores `text` in the field when it parses completely, unchecked.
  std::function<bool(RunSpec&, const char* text)> parse;
  /// Whether the field's value in `spec` passes the row's check.
  std::function<bool(const RunSpec&)> ok;
  /// The field's value in `spec`, as text `parse` reads back exactly.
  std::function<std::string(const RunSpec&)> show;

  [[nodiscard]] const char* name() const { return flag != nullptr ? flag : env; }
  /// Parses and checks `text`; stores it only when both pass.
  bool set(RunSpec& spec, const char* text) const;
};

const std::vector<Knob>& knobs();
/// The row whose CLI flag is `flag`, or nullptr.
const Knob* find_flag(std::string_view flag);
/// Throws std::invalid_argument naming the first knob that fails its check.
void validate(const RunSpec& spec);
/// fedtiny_cli's --help body: one entry per row.
std::string knob_help();

/// True when env var `name` is set and `accept` takes its value. A value
/// `accept` rejects warns on stderr and reads as unset.
bool env_value(const char* name, const std::string& domain,
               const std::function<bool(const char*)>& accept);
/// Parses the whole of `text` as an integer.
bool parse_int(const char* text, int64_t& out);

}  // namespace fedtiny::harness
