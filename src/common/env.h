// Environment-variable parsing.
//
// The paper activates AID without touching application code: the schedule and
// its parameters are read from the environment at startup (the analog of
// OMP_SCHEDULE / GOMP_AMP_AFFINITY). This module centralizes the parsing so
// runtime configuration has one implementation and one set of tests.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace aid::env {

/// Raw lookup; nullopt when the variable is unset.
[[nodiscard]] std::optional<std::string> get(std::string_view name);

/// Typed lookups: return `fallback` when unset; when set but unparsable
/// they warn ONCE per variable to stderr and return `fallback` (not an
/// error), so a bad environment never aborts a user application — matching
/// libgomp's forgiving behavior while still telling the user their knob
/// silently did nothing (AID_NUM_THREADS=abc is reported, not ignored).
[[nodiscard]] std::string get_string(std::string_view name,
                                     std::string_view fallback);
[[nodiscard]] i64 get_int(std::string_view name, i64 fallback);
[[nodiscard]] double get_double(std::string_view name, double fallback);
[[nodiscard]] bool get_bool(std::string_view name, bool fallback);

/// get_int with a domain floor: values that parse but fall below `min`
/// (e.g. a negative chunk size or AID_NUM_THREADS=-4) get the same
/// warn-once + fallback treatment as unparsable text.
[[nodiscard]] i64 get_int_at_least(std::string_view name, i64 fallback,
                                   i64 min);

/// The warn-once channel behind the typed lookups, exposed for knobs whose
/// grammar lives outside this module (enum-valued variables like
/// AID_POLICY / AID_SERVE_POLICY). Prints
///   libaid: ignoring NAME="VALUE" (expected GRAMMAR)
/// to stderr, at most once per variable name per process.
void warn_once_ignored(std::string_view name, std::string_view value,
                       std::string_view expected);

/// Test hook: forget which variables have already warned (the warn-once
/// set is process-global; tests reuse variable names).
void reset_warnings();

/// Parse helpers exposed for tests and for OMP_SCHEDULE-style strings.
[[nodiscard]] std::optional<i64> parse_int(std::string_view text);
[[nodiscard]] std::optional<double> parse_double(std::string_view text);
[[nodiscard]] std::optional<bool> parse_bool(std::string_view text);

/// Split on a delimiter, trimming ASCII whitespace from each piece; empty
/// pieces are dropped ("a, b,,c" -> {"a","b","c"}).
[[nodiscard]] std::vector<std::string> split_list(std::string_view text,
                                                  char delim = ',');

/// Trim ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text);

/// Scoped environment override for tests (set on construction, restore on
/// destruction). Not thread-safe: setenv never is; tests use it serially.
class ScopedSet {
 public:
  ScopedSet(std::string name, std::string value);
  ~ScopedSet();
  ScopedSet(const ScopedSet&) = delete;
  ScopedSet& operator=(const ScopedSet&) = delete;

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

}  // namespace aid::env
