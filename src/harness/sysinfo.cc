#include "harness/sysinfo.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/env.h"

namespace aid::harness {

namespace {

/// First line of a file, trimmed; empty when unreadable.
std::string first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return {};
  return std::string(env::trim(line));
}

std::string cpu_model_name() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (in && std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const auto key = env::trim(std::string_view(line).substr(0, colon));
    if (key == "model name" || key == "Model" || key == "cpu model")
      return std::string(env::trim(std::string_view(line).substr(colon + 1)));
  }
  return "unknown";
}

/// FNV-1a over the identity fields, rendered as 16 hex chars. Stability of
/// the rendering matters more than the hash family: committed baselines
/// carry these ids across compiler and libc versions.
std::string fnv1a_hex(const std::string& text) {
  u64 h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

SysInfo collect_sysinfo() {
  SysInfo info;
  info.nproc = static_cast<int>(std::thread::hardware_concurrency());
  info.cpu_model = cpu_model_name();
  if (info.cpu_model.empty()) info.cpu_model = "unknown";
  info.governor = first_line(
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  if (info.governor.empty()) info.governor = "unknown";
#ifdef __VERSION__
  info.compiler = __VERSION__;
#else
  info.compiler = "unknown";
#endif
  // CI exports GITHUB_SHA; AID_GIT_SHA wins so local sweeps can stamp the
  // exact commit they measured even from a dirty tree.
  info.git_sha = env::get_string(
      "AID_GIT_SHA", env::get_string("GITHUB_SHA", "unknown"));
  info.host_id = host_id_of(info);
  for (const char* knob :
       {"AID_POOL", "AID_SCHEDULE", "AID_NUM_THREADS", "AID_BENCH_SCALE",
        "AID_BENCH_RUNS"}) {
    info.env_knobs.emplace_back(knob, env::get(knob).value_or(""));
  }
  return info;
}

std::string host_id_of(const SysInfo& info) {
  return fnv1a_hex(info.cpu_model + "|" + std::to_string(info.nproc) + "|" +
                   info.governor);
}

std::string sysinfo_json(const SysInfo& info) {
  std::ostringstream out;
  out << "{\"nproc\": " << info.nproc                        //
      << ", \"cpu_model\": \"" << json_escape(info.cpu_model) << '"'
      << ", \"governor\": \"" << json_escape(info.governor) << '"'
      << ", \"compiler\": \"" << json_escape(info.compiler) << '"'
      << ", \"git_sha\": \"" << json_escape(info.git_sha) << '"'
      << ", \"host_id\": \"" << json_escape(info.host_id) << '"'
      << ", \"env\": {";
  for (usize i = 0; i < info.env_knobs.size(); ++i) {
    const auto& [name, value] = info.env_knobs[i];
    out << (i != 0 ? ", " : "") << '"' << json_escape(name) << "\": \""
        << json_escape(value) << '"';
  }
  out << "}}";
  return out.str();
}

}  // namespace aid::harness
