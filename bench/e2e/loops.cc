// The loop workloads: amp-loops, sym-loops and fine-chains.
//
// One pass runs the 11 servable kernels once each, in a seeded order, under
// one schedule; a round runs one pass per schedule and one reference pass
// (reference.h), in a seeded order, so every schedule sees the same machine
// noise as its reference. Pass time is the sum of the constructs'
// call-to-return times, so verification and trace analysis between
// constructs never count.
//
// The traced half wraps every body in a stamping lambda. Spans go into
// per-thread buffers that are analysed and cleared after each pass, which
// keeps memory bounded even for dynamic,1 (65536 spans a loop).
#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/padded.h"
#include "e2e.h"
#include "pipeline/loop_chain.h"
#include "platform/platform.h"
#include "reference.h"
#include "rt/team.h"
#include "workloads/serve_kernel.h"

namespace aid::e2e {
namespace {

constexpr int kThreads = 4;
/// BS mapping puts team threads [0, kBigThreads) on the big cores.
constexpr int kBigThreads = 2;
/// Spans kept for the JSON-lines file, per schedule.
constexpr usize kKeptSpans = 4096;

struct Shape {
  platform::Platform platform;
  bool emulate = false;
  i64 count = 0;     ///< every kernel but FT
  i64 ft_count = 0;  ///< FT's cost grows with count^2; it gets its own size
  bool chains = false;
};

Shape shape_of(const std::string& workload) {
  if (workload == "sym-loops")
    return {platform::symmetric(kThreads), false, 65536, 512, false};
  if (workload == "fine-chains")
    return {platform::generic_amp(2, 2, 2.0), true, 1024, 64, true};
  return {platform::generic_amp(2, 2, 2.0), true, 65536, 512, false};
}

struct Kernel {
  std::string name;
  workloads::ServeKernel k;
  double ref = 0.0;  ///< checksum of one serial run
  i64 runs = 0;      ///< runs so far; histogram's bins accumulate
};

Kernel build_kernel(const std::string& name, const Shape& shape) {
  std::string error;
  auto k = workloads::make_serve_kernel(
      name, name == "FT" ? shape.ft_count : shape.count, &error);
  if (!k) throw std::runtime_error("make_serve_kernel(" + name + "): " + error);
  return {name, std::move(*k), 0.0, 0};
}

bool accumulates(const Kernel& k) { return k.name == "histogram"; }

struct Setup {
  std::unique_ptr<rt::Team> team;
  std::vector<Kernel> kernels;
};

/// Team + kernels. `build_ms` gets the make_serve_kernel time alone.
Setup set_up(const Shape& shape, double* build_ms) {
  Setup s;
  // Threads are bound to cores, as OMP_PROC_BIND does in the paper's runs.
  // Unbound, the guest scheduler can start all four on one CPU and take
  // over a second to spread them, which reads as a 4x slower pass.
  s.team = std::make_unique<rt::Team>(shape.platform, kThreads,
                                      platform::Mapping::kBigFirst,
                                      shape.emulate, /*bind_threads=*/true);
  const i64 t0 = now_ns();
  for (const std::string& name : workloads::serve_kernel_names())
    s.kernels.push_back(build_kernel(name, shape));
  *build_ms = static_cast<double>(now_ns() - t0) / 1e6;
  return s;
}

/// The verification oracle, outside the timed set-up: one serial run of
/// each kernel gives the checksum every later run must reproduce.
void serial_references(std::vector<Kernel>& kernels) {
  for (Kernel& k : kernels) {
    k.k.body(0, k.k.count, rt::WorkerInfo{});
    k.ref = k.k.checksum();
    k.runs = 1;
  }
}

// ------------------------------------------------------------------ tracing

struct Span {
  i64 begin = 0;
  i64 end = 0;
  i64 ib = 0;  ///< iteration range [ib, ie)
  i64 ie = 0;
  u32 id = 0;  ///< construct (chain entry) id
};

/// Per-schedule layer samples of the traced passes: one value per pass,
/// except gap_us (one per construct) and sf_error (one per AID construct).
/// The *_share split is over the pass's run_loop constructs: for each, the
/// last-finishing thread's dispatch, take gaps, bodies (emulation charge
/// included) and join, summed over the pass and divided by the summed
/// construct wall time, so the four shares add up to about 1.
struct LayerAcc {
  std::vector<double> body_ms, chunks, big_share, barrier_ms, barrier_share;
  std::vector<double> dispatch_share, take_share, body_share, join_share;
  std::vector<double> steal_share, loops_ms, chain_ms, chain_vs_loops;
  std::vector<double> gap_us, sf_error;
};

class Tracer {
 public:
  Tracer(const rt::Team& team, bool emulate, double nominal_sf,
         Result& result)
      : bufs_(static_cast<usize>(team.nthreads())),
        cursor_(bufs_.size(), 0),
        nominal_sf_(nominal_sf),
        result_(result) {
    const auto& layout = team.layout();
    double fastest = 0.0;
    for (int t = 0; t < layout.nthreads(); ++t)
      fastest = std::max(fastest, layout.speed_of(t));
    for (int t = 0; t < layout.nthreads(); ++t) {
      slowdown_.push_back(emulate ? fastest / layout.speed_of(t) : 1.0);
      core_.push_back(!emulate ? "symmetric"
                               : (t < kBigThreads ? "big" : "small"));
      bufs_[static_cast<usize>(t)]->reserve(usize{1} << 18);
    }
  }

  /// The stamping wrapper. `body` must outlive the returned function.
  rt::RangeBody wrap(const rt::RangeBody& body) {
    const u32 id = next_id_++;
    return [this, &body, id](i64 b, i64 e, const rt::WorkerInfo& w) {
      const i64 t0 = now_ns();
      body(b, e, w);
      const i64 t1 = now_ns();
      bufs_[static_cast<usize>(w.tid)]->push_back({t0, t1, b, e, id});
    };
  }
  [[nodiscard]] u32 next_id() const { return next_id_; }

  /// Record a construct of the current pass. Analysis waits for the pass
  /// end, so constructs still run back to back as in the untraced half.
  void loop_done(i64 call, i64 ret, i64 count,
                 const sched::SchedulerStats& st) {
    pending_.push_back({next_id_ - 1, false, call, ret, {count}, st});
  }
  void chain_done(i64 call, i64 ret, u32 first_id, std::vector<i64> counts) {
    pending_.push_back({first_id, true, call, ret, std::move(counts), {}});
  }

  /// Analyse the pass's constructs, fold them into `out`, clear buffers.
  void end_pass(const char* schedule, LayerAcc& out) {
    pass_ = Pass{};
    std::fill(cursor_.begin(), cursor_.end(), usize{0});
    for (const Pending& p : pending_) {
      if (p.chain)
        chain(p);
      else
        loop(p);
    }
    for (usize t = 0; t < bufs_.size(); ++t)
      if (cursor_[t] != bufs_[t]->size())
        result_.fail("spans of an unknown construct on thread " +
                     std::to_string(t));
    keep(schedule);
    pending_.clear();
    for (auto& b : bufs_) b->clear();

    const Pass& p = pass_;
    const double wall = p.loops_ns;
    out.body_ms.push_back(p.body_ns / 1e6);
    out.chunks.push_back(p.chunks);
    out.big_share.push_back(p.iters > 0 ? p.big_iters / p.iters : 0.0);
    out.barrier_ms.push_back(p.barrier_ns / 1e6);
    out.barrier_share.push_back(
        p.barrier_ns / (static_cast<double>(bufs_.size()) * wall));
    out.dispatch_share.push_back(p.dispatch_ns / wall);
    out.take_share.push_back(p.take_ns / wall);
    out.body_share.push_back(p.busy_ns / wall);
    out.join_share.push_back(p.join_ns / wall);
    const double removals = p.local + p.steal;
    out.steal_share.push_back(removals > 0 ? p.steal / removals : 0.0);
    out.loops_ms.push_back(p.loops_ns / 1e6);
    out.chain_ms.push_back(p.chain_ns / 1e6);
    out.chain_vs_loops.push_back(p.chain_ns / p.loops_ns);
    out.gap_us.insert(out.gap_us.end(), p.gap_us.begin(), p.gap_us.end());
    out.sf_error.insert(out.sf_error.end(), p.sf_error.begin(),
                        p.sf_error.end());
  }

  [[nodiscard]] const std::vector<double>& dispatch_us() const {
    return dispatch_us_;
  }
  [[nodiscard]] const std::vector<double>& join_us() const { return join_us_; }
  [[nodiscard]] const std::vector<double>& split_error() const {
    return split_error_;
  }
  [[nodiscard]] const std::vector<double>& entry_gap_us() const {
    return entry_gap_us_;
  }

  /// The kept construct records and spans as JSON lines.
  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    out << kept_;
  }

 private:
  struct Pending {
    u32 first_id = 0;
    bool chain = false;
    i64 call = 0;
    i64 ret = 0;
    std::vector<i64> counts;  ///< one per entry
    sched::SchedulerStats st;  ///< run_loop only
  };
  struct Construct {
    std::vector<i64> first_begin;  ///< per participating thread
    std::vector<double> busy;      ///< per thread: bodies + emulation charge
    i64 end = 0;                   ///< last body end + its charge, any thread
    double barrier_ns = 0;
    double critical_busy = 0, critical_gaps = 0;
    i64 critical_first = 0;
  };
  struct Pass {
    double body_ns = 0, chunks = 0, big_iters = 0, iters = 0, barrier_ns = 0;
    double dispatch_ns = 0, take_ns = 0, busy_ns = 0, join_ns = 0;
    double local = 0, steal = 0, loops_ns = 0, chain_ns = 0;
    std::vector<double> gap_us, sf_error;
  };

  [[nodiscard]] double charge(usize tid, const Span& s) const {
    return (slowdown_[tid] - 1.0) * static_cast<double>(s.end - s.begin);
  }
  [[nodiscard]] i64 charged_end(usize tid, const Span& s) const {
    return s.end + static_cast<i64>(charge(tid, s));
  }

  void loop(const Pending& p) {
    const Construct c = analyse(p.first_id, p.counts[0], p.call);
    const double wall = static_cast<double>(p.ret - p.call);
    pass_.loops_ns += wall;
    pass_.barrier_ns += c.barrier_ns;
    pass_.local += static_cast<double>(p.st.local_removals);
    pass_.steal += static_cast<double>(p.st.steal_removals);
    if (p.st.estimated_sf > 0.0)
      pass_.sf_error.push_back(std::abs(p.st.estimated_sf - nominal_sf_) /
                               nominal_sf_);
    join_us_.push_back(static_cast<double>(p.ret - c.end) / 1e3);
    for (const i64 first : c.first_begin)
      dispatch_us_.push_back(static_cast<double>(first - p.call) / 1e3);
    // The last-finishing thread's parts, each clamped at zero: dispatch,
    // bodies + emulation charge, take gaps, join. The charge is modelled
    // from the body time, so a wrong model drives a gap or the join
    // negative and the parts miss the wall time.
    const double dispatch =
        std::max(0.0, static_cast<double>(c.critical_first - p.call));
    const double join = std::max(0.0, static_cast<double>(p.ret - c.end));
    pass_.dispatch_ns += dispatch;
    pass_.take_ns += c.critical_gaps;
    pass_.busy_ns += c.critical_busy;
    pass_.join_ns += join;
    const double parts = dispatch + c.critical_busy + c.critical_gaps + join;
    split_error_.push_back(std::abs(parts - wall) / wall);
  }

  void chain(const Pending& p) {
    // One thread's last body of entry k to its first body of entry k+1,
    // the emulation charge of that last body excluded.
    const u32 last_id = p.first_id + static_cast<u32>(p.counts.size());
    for (usize t = 0; t < bufs_.size(); ++t) {
      const std::vector<Span>& spans = *bufs_[t];
      for (usize i = cursor_[t] + 1;
           i < spans.size() && spans[i].id < last_id; ++i)
        if (spans[i].id == spans[i - 1].id + 1)
          entry_gap_us_.push_back(
              static_cast<double>(spans[i].begin -
                                  charged_end(t, spans[i - 1])) /
              1e3);
    }
    for (usize k = 0; k < p.counts.size(); ++k)
      (void)analyse(p.first_id + static_cast<u32>(k), p.counts[k], p.call);
    pass_.chain_ns += static_cast<double>(p.ret - p.call);
  }

  /// One construct (or chain entry): consumes its spans from every
  /// thread's buffer (threads run constructs in order), adds the pass sums,
  /// and checks that the ranges cover [0, count) exactly once.
  Construct analyse(u32 id, i64 count, i64 call) {
    Construct c;
    c.busy.assign(bufs_.size(), 0.0);
    ranges_.clear();
    gaps_.clear();
    std::vector<i64> thread_end(bufs_.size(), call);
    std::vector<i64> thread_first(bufs_.size(), call);
    std::vector<double> thread_gaps(bufs_.size(), 0.0);
    for (usize t = 0; t < bufs_.size(); ++t) {
      const std::vector<Span>& spans = *bufs_[t];
      const Span* prev = nullptr;
      for (; cursor_[t] < spans.size() && spans[cursor_[t]].id == id;
           ++cursor_[t]) {
        const Span& s = spans[cursor_[t]];
        if (prev == nullptr) {
          thread_first[t] = s.begin;
          c.first_begin.push_back(s.begin);
        } else {
          const double gap =
              static_cast<double>(s.begin - charged_end(t, *prev));
          gaps_.push_back(gap);
          thread_gaps[t] += std::max(0.0, gap);
        }
        const double iters = static_cast<double>(s.ie - s.ib);
        c.busy[t] += static_cast<double>(s.end - s.begin) + charge(t, s);
        thread_end[t] = charged_end(t, s);
        ranges_.emplace_back(s.ib, s.ie);
        pass_.body_ns += static_cast<double>(s.end - s.begin);
        pass_.iters += iters;
        if (t < static_cast<usize>(kBigThreads)) pass_.big_iters += iters;
        prev = &s;
      }
    }
    usize critical = 0;
    for (usize t = 0; t < bufs_.size(); ++t)
      if (thread_end[t] > thread_end[critical]) critical = t;
    c.end = thread_end[critical];
    for (usize t = 0; t < bufs_.size(); ++t)
      c.barrier_ns += static_cast<double>(c.end - thread_end[t]);
    c.critical_busy = c.busy[critical];
    c.critical_gaps = thread_gaps[critical];
    c.critical_first = thread_first[critical];
    pass_.chunks += static_cast<double>(ranges_.size());
    if (!gaps_.empty()) pass_.gap_us.push_back(median(gaps_) / 1e3);

    std::sort(ranges_.begin(), ranges_.end());
    i64 next = 0;
    bool ok = true;
    for (const auto& [b, e] : ranges_) {
      ok = ok && b == next && e > b;
      next = e;
    }
    if (!ok || next != count)
      result_.fail("construct " + std::to_string(id) +
                   ": body ranges do not cover [0, " + std::to_string(count) +
                   ") exactly once");
    return c;
  }

  /// Append the pass's construct records and, up to kKeptSpans per
  /// schedule, its spans to the JSON-lines text.
  void keep(const std::string& schedule) {
    for (const Pending& p : pending_)
      kept_ += "{\"construct\": " + std::to_string(p.first_id) +
               ", \"kind\": \"" + (p.chain ? "chain" : "loop") +
               "\", \"entries\": " + std::to_string(p.counts.size()) +
               ", \"schedule\": \"" + schedule +
               "\", \"call_ns\": " + std::to_string(p.call) +
               ", \"return_ns\": " + std::to_string(p.ret) + "}\n";
    usize& kept = kept_spans_[schedule];
    for (usize t = 0; t < bufs_.size(); ++t)
      for (const Span& s : *bufs_[t]) {
        if (kept >= kKeptSpans) return;
        ++kept;
        kept_ += "{\"id\": " + std::to_string(s.id) +
                 ", \"tid\": " + std::to_string(t) + ", \"core\": \"" +
                 core_[t] + "\", \"begin_ns\": " + std::to_string(s.begin) +
                 ", \"end_ns\": " + std::to_string(s.end) +
                 ", \"iter_begin\": " + std::to_string(s.ib) +
                 ", \"iter_end\": " + std::to_string(s.ie) + "}\n";
      }
  }

  std::vector<Padded<std::vector<Span>>> bufs_;  ///< one per team thread
  std::vector<usize> cursor_;  ///< per thread: next span to analyse
  std::vector<double> slowdown_;
  std::vector<std::string> core_;
  double nominal_sf_;
  Result& result_;
  u32 next_id_ = 1;
  std::vector<Pending> pending_;
  Pass pass_;
  std::vector<std::pair<i64, i64>> ranges_;  // analyse() work buffer
  std::vector<double> gaps_;                 // analyse() work buffer
  std::vector<double> dispatch_us_, join_us_, split_error_, entry_gap_us_;
  std::map<std::string, usize> kept_spans_;
  std::string kept_;
};

// -------------------------------------------------------------------- passes

/// Every second chain entry waits for its predecessor; the others may
/// overlap it (nowait).
void add_to_chain(pipeline::LoopChain& chain, usize j, i64 count,
                  const sched::ScheduleSpec& spec, rt::RangeBody body) {
  if (j % 2 == 1)
    chain.add_after(static_cast<int>(j) - 1, count, spec, std::move(body));
  else
    chain.add(count, spec, std::move(body));
}

/// One pass under `spec`: the kernels as back-to-back run_loops, then (for
/// fine-chains) as one LoopChain. Returns the constructs' summed
/// call-to-return time in ns.
double run_pass(rt::Team& team, std::vector<Kernel>& kernels,
                const std::vector<int>& order, const sched::ScheduleSpec& spec,
                bool chains, Tracer* tracer) {
  double total = 0.0;
  for (const int i : order) {
    Kernel& k = kernels[static_cast<usize>(i)];
    const rt::RangeBody traced =
        tracer != nullptr ? tracer->wrap(k.k.body) : rt::RangeBody{};
    const i64 t0 = now_ns();
    team.run_loop(k.k.count, spec, tracer != nullptr ? traced : k.k.body);
    const i64 t1 = now_ns();
    total += static_cast<double>(t1 - t0);
    ++k.runs;
    if (tracer != nullptr)
      tracer->loop_done(t0, t1, k.k.count, team.last_loop_stats());
  }
  if (!chains) return total;

  pipeline::LoopChain chain;
  std::vector<i64> counts;
  const u32 first_id = tracer != nullptr ? tracer->next_id() : 0;
  for (usize j = 0; j < order.size(); ++j) {
    Kernel& k = kernels[static_cast<usize>(order[j])];
    add_to_chain(chain, j, k.k.count, spec,
                 tracer != nullptr ? tracer->wrap(k.k.body) : k.k.body);
    counts.push_back(k.k.count);
  }
  const i64 t0 = now_ns();
  team.run_chain(chain);
  const i64 t1 = now_ns();
  total += static_cast<double>(t1 - t0);
  for (const int i : order) ++kernels[static_cast<usize>(i)].runs;
  if (tracer != nullptr) tracer->chain_done(t0, t1, first_id, std::move(counts));
  return total;
}

/// Every kernel's checksum after a pass, bit-exact. Slot kernels rewrite
/// the same slots on every run; histogram's bins accumulate, so after r
/// runs its checksum must be exactly r times the serial one (integer sums
/// far below 2^53).
void verify_pass(const std::vector<Kernel>& kernels, Result& result) {
  for (const Kernel& k : kernels) {
    const double got = k.k.checksum();
    const double want =
        accumulates(k) ? static_cast<double>(k.runs) * k.ref : k.ref;
    result.attempt(got == want, k.name + " checksum " + std::to_string(got) +
                                    " after " + std::to_string(k.runs) +
                                    " runs, want " + std::to_string(want));
  }
}

/// Warmup verification: freshly built kernels, one run under every
/// schedule (and through a chain on fine-chains), checked bit-exactly
/// against the serial checksums.
void verify_fresh(rt::Team& team, const Shape& shape,
                  const std::vector<Kernel>& refs, Result& result) {
  for (const NamedSchedule& s : schedules()) {
    for (const bool via_chain : {false, true}) {
      if (via_chain && !shape.chains) continue;
      std::vector<Kernel> fresh;
      for (const Kernel& r : refs) fresh.push_back(build_kernel(r.name, shape));
      if (via_chain) {
        pipeline::LoopChain chain;
        for (usize j = 0; j < fresh.size(); ++j)
          add_to_chain(chain, j, fresh[j].k.count, s.spec, fresh[j].k.body);
        team.run_chain(chain);
      } else {
        for (Kernel& k : fresh) team.run_loop(k.k.count, s.spec, k.k.body);
      }
      for (usize j = 0; j < fresh.size(); ++j) {
        const double got = fresh[j].k.checksum();
        result.attempt(got == refs[j].ref,
                       fresh[j].name + " under " + s.name +
                           (via_chain ? " (chain)" : "") + ": checksum " +
                           std::to_string(got) + " != serial " +
                           std::to_string(refs[j].ref));
      }
    }
  }
}

struct Rounds {
  std::array<std::vector<double>, kNumSchedules> pass_ms;
  /// Per round: this schedule's pass time ÷ the reference pass of its
  /// policy (reference.h) in the same round.
  std::array<std::vector<double>, kNumSchedules> vs_ref;
  /// Per round: this schedule's pass time ÷ static's, the paper's
  /// normalised completion time.
  std::array<std::vector<double>, kNumSchedules> vs_static;
};

/// Rounds until `seconds` elapsed. A round runs one pass per schedule and
/// one reference pass, in a seeded order, each over the kernels in a seeded
/// order, then `after_round`. With a tracer, also folds the layer samples
/// into `layers`.
Rounds run_rounds(rt::Team& team, Reference& ref, std::vector<Kernel>& kernels,
                  const Shape& shape, double seconds, Rng& kernel_rng,
                  Rng& sched_rng, const std::function<void()>& after_round,
                  Result& result, Tracer* tracer = nullptr,
                  std::array<LayerAcc, kNumSchedules>* layers = nullptr) {
  Rounds out;
  std::vector<int> order(kernels.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<int> pass_order(kNumSchedules + 1);  // kNumSchedules: reference
  std::iota(pass_order.begin(), pass_order.end(), 0);
  const i64 stop = now_ns() + static_cast<i64>(seconds * 1e9);
  do {
    shuffle(pass_order, sched_rng);
    std::array<double, kNumSchedules> ms{};
    Reference::Times ref_ns;
    for (const int p : pass_order) {
      shuffle(order, kernel_rng);
      if (p == kNumSchedules) {
        // The same constructs as a schedule's pass: on fine-chains the
        // kernels run twice, as loops and as a chain.
        std::vector<const workloads::ServeKernel*> list;
        for (int twice = shape.chains ? 2 : 1; twice > 0; --twice)
          for (const int i : order) {
            list.push_back(&kernels[static_cast<usize>(i)].k);
            kernels[static_cast<usize>(i)].runs += 2;  // equal + dynamic
          }
        ref_ns = ref.run(list);
        verify_pass(kernels, result);
        continue;
      }
      const usize s = static_cast<usize>(p);
      ms[s] = run_pass(team, kernels, order, schedules()[s].spec, shape.chains,
                       tracer) /
              1e6;
      out.pass_ms[s].push_back(ms[s]);
      if (tracer != nullptr) {
        tracer->end_pass(schedules()[s].name, (*layers)[s]);
        // Analysing a dynamic pass takes tens of ms, long enough for the
        // workers (and their idle vCPUs) to fall deep asleep. One untimed
        // empty construct wakes them, so the next pass starts as it would
        // in the untraced half instead of paying a millisecond wake-up.
        team.run_loop(team.nthreads(), sched::ScheduleSpec::static_even(),
                      [](i64, i64, const rt::WorkerInfo&) {});
      }
      verify_pass(kernels, result);
    }
    for (usize s = 0; s < kNumSchedules; ++s) {
      out.vs_ref[s].push_back(ms[s] * 1e6 / ref_ns.of(schedules()[s].ref));
      out.vs_static[s].push_back(ms[s] / ms[0]);
    }
    after_round();
  } while (now_ns() < stop);
  return out;
}

}  // namespace

void run_loop_workload(const Options& opts, Result& result) {
  const Shape shape = shape_of(opts.workload);

  std::vector<double> build_ms;
  const auto make = [&] {
    build_ms.push_back(0.0);
    return set_up(shape, &build_ms.back());
  };
  SetupTimes setups;
  Setup setup = setups.first(make);
  const auto set_up_again = [&] { setups.in_window(make); };
  rt::Team& team = *setup.team;
  std::vector<Kernel>& kernels = setup.kernels;
  serial_references(kernels);

  verify_fresh(team, shape, kernels, result);
  Reference ref(team.layout(), shape.emulate);
  Rng warm_kernels = stream(opts.seed, 11);
  Rng warm_scheds = stream(opts.seed, 12);
  (void)run_rounds(team, ref, kernels, shape, opts.warmup, warm_kernels,
                   warm_scheds, [] {}, result);

  Rng kernel_rng = stream(opts.seed, 1);
  Rng sched_rng = stream(opts.seed, 2);
  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const Rounds untraced = run_rounds(team, ref, kernels, shape, untraced_s,
                                     kernel_rng, sched_rng, set_up_again,
                                     result);

  if (!opts.trace) {
    result.value("setup_s", "s", setups.median_s());
    result.value("peak_rss_mb", "MB", peak_rss_mb());
    for (usize s = 0; s < kNumSchedules; ++s) {
      const std::string n = schedules()[s].name;
      result.ratio("vs_ref." + n, "x", untraced.vs_ref[s]);
      result.timing("pass_ms." + n, "ms", untraced.pass_ms[s]);
      if (s != 0) result.ratio("vs_static." + n, "x", untraced.vs_static[s]);
    }
    return;
  }

  Tracer tracer(team, shape.emulate,
                shape.emulate ? shape.platform.nominal_asymmetry() : 1.0,
                result);
  std::array<LayerAcc, kNumSchedules> layers;
  const Rounds traced = run_rounds(team, ref, kernels, shape, opts.seconds / 2,
                                   kernel_rng, sched_rng, set_up_again, result,
                                   &tracer, &layers);
  tracer.write_jsonl(opts.out_dir + "/trace-" + opts.workload + "-" +
                     std::to_string(opts.seed) + ".jsonl");

  result.layer("workloads.build_ms", "ms", median(build_ms));
  for (usize s = 0; s < kNumSchedules; ++s) {
    const std::string n = schedules()[s].name;
    const LayerAcc& l = layers[s];
    const bool is_static = s == 0;
    const bool is_aid = s >= 2;
    result.layer("sched.chunks." + n, "count", median(l.chunks));
    result.layer("sched.big_share." + n, "share", median(l.big_share));
    result.layer("sched.barrier_share." + n, "share", median(l.barrier_share));
    result.layer("rt.dispatch_share." + n, "share", median(l.dispatch_share));
    result.layer("sched.take_share." + n, "share", median(l.take_share));
    result.layer("workloads.body_share." + n, "share", median(l.body_share));
    result.layer("rt.join_share." + n, "share", median(l.join_share));
    if (is_aid)
      result.layer("sched.sf_error." + n, "share", median(l.sf_error));
    if (!is_static)
      result.layer("sched.steal_share." + n, "share", median(l.steal_share));
    if (shape.chains)
      result.layer("pipeline.chain_vs_loops." + n, "x",
                   median(l.chain_vs_loops));
    // Times, for the table: host speed moves them between runs.
    result.layer("workloads.body_ms." + n, "ms", median(l.body_ms));
    result.layer("sched.barrier_wait_ms." + n, "ms", median(l.barrier_ms));
    if (!is_static)
      result.layer("sched.take_gap_us." + n, "us", median(l.gap_us));
    if (shape.chains) {
      result.layer("pipeline.loops_ms." + n, "ms", median(l.loops_ms));
      result.layer("pipeline.chain_ms." + n, "ms", median(l.chain_ms));
    }
  }
  const std::vector<double>& dispatch = tracer.dispatch_us();
  result.layer("rt.dispatch_us", "us", median(dispatch));
  result.layer("rt.dispatch_max_us", "us",
               *std::max_element(dispatch.begin(), dispatch.end()));
  result.layer("rt.join_us", "us", median(tracer.join_us()));
  result.layer("rt.split_error", "share", median(tracer.split_error()));
  if (shape.chains)
    result.layer("pipeline.entry_gap_us", "us", median(tracer.entry_gap_us()));
  result.layer("trace_overhead", "share",
               median(traced.vs_ref[0]) / median(untraced.vs_ref[0]) - 1.0);
}

}  // namespace aid::e2e
