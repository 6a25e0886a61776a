#include "platform/team_layout.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace aid::platform {

const char* to_string(Mapping m) {
  return m == Mapping::kSmallFirst ? "SB" : "BS";
}

TeamLayout::TeamLayout(const Platform& platform, int nthreads, Mapping mapping)
    : mapping_(mapping) {
  AID_CHECK_MSG(nthreads >= 1, "team needs at least one thread");
  AID_CHECK_MSG(nthreads <= platform.num_cores(),
                "oversubscription is outside the paper's scope (Sec. 4.2)");
  core_of_.resize(static_cast<usize>(nthreads));
  core_type_of_.resize(static_cast<usize>(nthreads));
  speed_of_.resize(static_cast<usize>(nthreads));
  threads_of_type_.assign(static_cast<usize>(platform.num_core_types()), 0);
  for (const auto& c : platform.clusters()) type_names_.push_back(c.name);

  for (int tid = 0; tid < nthreads; ++tid) {
    const int core = mapping == Mapping::kSmallFirst
                         ? tid
                         : platform.num_cores() - 1 - tid;
    const int type = platform.core_type_of(core);
    core_of_[static_cast<usize>(tid)] = core;
    core_type_of_[static_cast<usize>(tid)] = type;
    speed_of_[static_cast<usize>(tid)] = platform.speed_of_type(type);
    ++threads_of_type_[static_cast<usize>(type)];
  }
}

TeamLayout::TeamLayout(const Platform& platform, std::vector<int> cores,
                       Mapping mapping)
    : mapping_(mapping) {
  AID_CHECK_MSG(!cores.empty(), "partition layout needs at least one core");
  // Core ids ascend with speed (Platform stores clusters slowest-first), so
  // mapping reduces to a sort direction on the id: SB ascending (tid 0 on
  // the slowest granted core), BS descending (tid 0 on the fastest).
  std::sort(cores.begin(), cores.end());
  for (usize i = 0; i < cores.size(); ++i) {
    AID_CHECK_MSG(cores[i] >= 0 && cores[i] < platform.num_cores(),
                  ("partition layout: core id " + std::to_string(cores[i]) +
                   " outside platform [0, " +
                   std::to_string(platform.num_cores()) + ")")
                      .c_str());
    AID_CHECK_MSG(i == 0 || cores[i] != cores[i - 1],
                  ("partition layout: duplicate core id " +
                   std::to_string(cores[i]))
                      .c_str());
  }
  if (mapping == Mapping::kBigFirst)
    std::reverse(cores.begin(), cores.end());

  const int nthreads = static_cast<int>(cores.size());
  core_of_.resize(static_cast<usize>(nthreads));
  core_type_of_.resize(static_cast<usize>(nthreads));
  speed_of_.resize(static_cast<usize>(nthreads));
  threads_of_type_.assign(static_cast<usize>(platform.num_core_types()), 0);
  for (const auto& c : platform.clusters()) type_names_.push_back(c.name);

  for (int tid = 0; tid < nthreads; ++tid) {
    const int core = cores[static_cast<usize>(tid)];
    const int type = platform.core_type_of(core);
    core_of_[static_cast<usize>(tid)] = core;
    core_type_of_[static_cast<usize>(tid)] = type;
    speed_of_[static_cast<usize>(tid)] = platform.speed_of_type(type);
    ++threads_of_type_[static_cast<usize>(type)];
  }
}

int TeamLayout::core_of(int tid) const {
  AID_CHECK(tid >= 0 && tid < nthreads());
  return core_of_[static_cast<usize>(tid)];
}

int TeamLayout::core_type_of(int tid) const {
  AID_CHECK(tid >= 0 && tid < nthreads());
  return core_type_of_[static_cast<usize>(tid)];
}

double TeamLayout::speed_of(int tid) const {
  AID_CHECK(tid >= 0 && tid < nthreads());
  return speed_of_[static_cast<usize>(tid)];
}

int TeamLayout::threads_of_type(int type) const {
  AID_CHECK(type >= 0 && type < num_core_types());
  return threads_of_type_[static_cast<usize>(type)];
}

int TeamLayout::nb() const {
  return threads_of_type_[threads_of_type_.size() - 1];
}

int TeamLayout::ns() const { return nthreads() - nb(); }

bool TeamLayout::is_uniform() const {
  int populated = 0;
  for (int n : threads_of_type_) populated += (n > 0) ? 1 : 0;
  return populated <= 1;
}

std::string TeamLayout::describe() const {
  std::ostringstream os;
  os << "mapping " << to_string(mapping_) << ", " << nthreads()
     << " threads\n";
  for (int tid = 0; tid < nthreads(); ++tid) {
    const int type = core_type_of_[static_cast<usize>(tid)];
    os << "  tid " << tid << " -> core " << core_of_[static_cast<usize>(tid)]
       << " (type " << type << ", " << type_names_[static_cast<usize>(type)]
       << ")\n";
  }
  return os.str();
}

}  // namespace aid::platform
