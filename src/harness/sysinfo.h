// System/environment snapshot embedded in every bench artifact.
//
// A perf number without its provenance is noise: the bench binaries and
// the committed baselines all embed the same snapshot so
// bench_diff can refuse to gate a laptop result against a CI baseline. The
// `host_id` field is the key — a short stable hash of the hardware-visible
// fields (cpu model, core count, governor), so "same runner class" is one
// string comparison instead of a fuzzy match over free-form text.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace aid::harness {

struct SysInfo {
  int nproc = 0;            ///< online CPU count
  std::string cpu_model;    ///< /proc/cpuinfo "model name" (first entry)
  std::string governor;     ///< scaling governor of cpu0, or "unknown"
  std::string compiler;     ///< __VERSION__ of the compiler that built this
  std::string git_sha;      ///< AID_GIT_SHA / GITHUB_SHA env, or "unknown"
  std::string host_id;      ///< hash of (cpu_model, nproc, governor)

  /// The AID_* knobs that change what a measurement means, as (name, value)
  /// pairs; unset knobs are recorded as "" so the artifact distinguishes
  /// "unset" from "set to empty".
  std::vector<std::pair<std::string, std::string>> env_knobs;
};

/// Probe the current process/host. Never fails: unreadable fields degrade
/// to "unknown" (the snapshot must work in containers without sysfs).
[[nodiscard]] SysInfo collect_sysinfo();

/// The host-class key by itself, for callers that only need to compare.
[[nodiscard]] std::string host_id_of(const SysInfo& info);

/// One JSON object (no trailing newline) with every field above, e.g.
/// {"nproc": 8, "cpu_model": "...", ..., "env": {"AID_POOL": "", ...}}.
/// This exact shape is what bench_diff.py parses out of "snapshot" records.
[[nodiscard]] std::string sysinfo_json(const SysInfo& info);

}  // namespace aid::harness
