// aid_node — run a ServeNode with a socket ingress, as a standalone
// process. The out-of-process half of the ingress acceptance test:
//
//   aid_node --socket /tmp/aid.sock [--credits N] [--platform NAME]
//
// Prints "READY <socket>" on stdout once the listener is bound, then
// serves until stdin reaches EOF (close the pipe / Ctrl-D) — the
// spawn-a-child idiom the tests and CI use: no signals to race, the
// parent just closes the pipe and waits.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "common/env.h"
#include "ingress/ingress_server.h"
#include "platform/platform.h"
#include "serve/serve_node.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--credits N] [--dispatchers N] "
               "[--platform NAME]\n"
               "  NAME: odroid-xu4 | xeon-amp | symmetric:N | "
               "generic:S,B,SPEED (default: symmetric over the host cores)\n",
               argv0);
  return 2;
}

/// `text` as an integer in [1, INT_MAX], or nullopt after naming `flag`
/// on stderr: a typo must not start a node with a silently different
/// setting.
std::optional<int> positive_int_flag(std::string_view flag, const char* text) {
  const std::optional<aid::i64> v = aid::env::parse_int(text);
  if (v && *v >= 1 && *v <= std::numeric_limits<int>::max())
    return static_cast<int>(*v);
  std::fprintf(stderr, "aid_node: bad %.*s '%s' (want a positive integer)\n",
               static_cast<int>(flag.size()), flag.data(), text);
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aid;

  std::string socket_path;
  std::string platform_name;
  u32 credits = 8;
  int dispatchers = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      socket_path = v;
    } else if (arg == "--credits") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      const auto n = positive_int_flag(arg, v);
      if (!n) return 2;
      credits = static_cast<u32>(*n);
    } else if (arg == "--dispatchers") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      const auto n = positive_int_flag(arg, v);
      if (!n) return 2;
      dispatchers = *n;
    } else if (arg == "--platform") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      platform_name = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_path.empty()) return usage(argv[0]);

  platform::Platform platform = [&] {
    if (!platform_name.empty()) {
      if (auto p = platform::parse_platform(platform_name)) return *p;
      std::fprintf(stderr, "aid_node: unknown platform '%s'\n",
                   platform_name.c_str());
      std::exit(2);
    }
    const int cores =
        std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
    return platform::symmetric(cores);
  }();

  serve::ServeNode::Config config = serve::ServeNode::Config::from_env();
  if (dispatchers > 0) config.dispatchers = dispatchers;

  try {
    serve::ServeNode node(platform, config);
    ingress::IngressServer::Config icfg;
    icfg.socket_path = socket_path;
    icfg.credit_window = credits;
    ingress::IngressServer server(node, icfg);

    std::printf("READY %s\n", server.socket_path().c_str());
    std::fflush(stdout);

    // Serve until the parent closes our stdin.
    char buf[256];
    while (true) {
      const ssize_t n = ::read(STDIN_FILENO, buf, sizeof buf);
      if (n == 0) break;                          // EOF: shut down
      if (n < 0 && errno != EINTR) break;
    }

    const ingress::IngressServer::Stats s = server.stats();
    std::fprintf(stderr,
                 "aid_node: %llu conns, %llu frames, %llu submits, "
                 "%llu protocol errors\n",
                 static_cast<unsigned long long>(s.connections_accepted),
                 static_cast<unsigned long long>(s.frames_decoded),
                 static_cast<unsigned long long>(s.submits),
                 static_cast<unsigned long long>(s.protocol_errors));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aid_node: %s\n", e.what());
    return 1;
  }
  return 0;
}
