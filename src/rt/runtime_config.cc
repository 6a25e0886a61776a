#include "rt/runtime_config.h"

#include <cstdio>
#include <sstream>

#include "common/env.h"

namespace aid::rt {

RuntimeConfig RuntimeConfig::from_env() {
  RuntimeConfig cfg;

  if (const auto text = env::get("AID_SCHEDULE")) {
    if (const auto spec = sched::parse_schedule(*text)) {
      cfg.schedule = *spec;
    } else {
      // One config read per Runtime construction, so a plain warn here is
      // already effectively once; no need for the env warn-once set.
      std::fprintf(stderr,
                   "libaid: ignoring malformed AID_SCHEDULE=\"%s\"\n",
                   text->c_str());
    }
  }

  // 0 = "use every core"; anything below that is a user error, warned once.
  cfg.num_threads =
      static_cast<int>(env::get_int_at_least("AID_NUM_THREADS", 0, 0));

  // GOMP_AMP_AFFINITY analog: enforce the BS mapping convention AID relies
  // on (threads 0..NB-1 on big cores).
  if (env::get_bool("AID_AMP_AFFINITY", false))
    cfg.mapping = platform::Mapping::kBigFirst;

  cfg.emulate_amp = env::get_bool("AID_EMULATE_AMP", true);
  cfg.bind_threads = env::get_bool("AID_BIND_THREADS", false);

  cfg.use_pool = env::get_bool("AID_POOL", false);
  if (const auto text = env::get("AID_POOL_POLICY")) cfg.pool_policy = *text;
  return cfg;
}

std::string RuntimeConfig::describe() const {
  std::ostringstream os;
  os << "schedule=" << schedule.display()
     << " num_threads=" << (num_threads > 0 ? std::to_string(num_threads)
                                            : std::string("(all cores)"))
     << " mapping=" << platform::to_string(mapping)
     << " emulate_amp=" << (emulate_amp ? "on" : "off")
     << " bind_threads=" << (bind_threads ? "on" : "off")
     << " pool=" << (use_pool ? "on" : "off");
  if (use_pool) os << " pool_policy=" << pool_policy;
  return os.str();
}

}  // namespace aid::rt
