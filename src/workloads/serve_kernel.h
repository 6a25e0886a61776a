// Wire-runnable instantiations of registry workloads.
//
// Function pointers don't cross a socket: an out-of-process client names a
// workload from the registry and the SERVER builds the computation — a
// canonical-range body over [0, count) plus a deterministic checksum
// harvested after the loop. validate_serve_kernel() is the boundary where
// untrusted wire parameters meet the registry, so it checks everything
// explicitly (unknown name, non-servable workload, out-of-range count)
// and reports errors as strings — never an assert, never an abort.
// make_serve_kernel() runs the same checks first, then builds.
//
// The socket ingress validates at SUBMIT and defers the build to the
// dispatcher that runs the job (serve_kernel_builder), so a queued job
// holds no kernel inputs or output slots.
//
// Every serve kernel is built from the schedule-invariant primitives in
// workloads/kernels.h: iteration i writes slot i of a preallocated output
// vector (no cross-iteration state, no atomics needed) and the checksum
// is a fixed-order serial reduction over that vector — so the checksum is
// bit-identical for ANY schedule, thread count, or chunking, which is
// what lets a client verify a COMPLETED frame against a local serial run.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "rt/team.h"

namespace aid::workloads {

/// Upper bound on a wire job's trip count: bounds the per-job state the
/// server allocates on behalf of a remote client (the credit window bounds
/// how many such jobs one connection can have in flight).
inline constexpr i64 kMaxServeCount = i64{1} << 20;

struct ServeKernel {
  i64 count = 0;            ///< canonical trip count (equals the request's)
  rt::RangeBody body;       ///< iteration body; owns its state via captures
  std::function<double()> checksum;  ///< fixed-order reduction; call AFTER
                                     ///< every iteration completed
};

/// Whether make_serve_kernel(workload, count) would build: false, with
/// `error` set (when non-null), for unknown names, registry workloads with
/// no wire-servable kernel, or count outside [1, kMaxServeCount]. Builds
/// and allocates nothing for the kernel.
[[nodiscard]] bool validate_serve_kernel(std::string_view workload, i64 count,
                                         std::string* error);

/// Build the named workload's serve kernel for `count` iterations.
/// Returns nullopt and sets `error` (when non-null) as
/// validate_serve_kernel does.
[[nodiscard]] std::optional<ServeKernel> make_serve_kernel(
    std::string_view workload, i64 count, std::string* error);

/// make_serve_kernel deferred to the thread that calls the result (a
/// serve::JobSpec::make_body): the call builds the kernel, stores its
/// checksum closure in `*checksum` and returns its body. It throws
/// std::invalid_argument with make_serve_kernel's error for parameters
/// that do not validate. Read `*checksum` only after the job's ticket
/// resolved: the build happens before the resolve, on the same thread.
[[nodiscard]] std::function<rt::RangeBody()> serve_kernel_builder(
    std::string workload, i64 count,
    std::shared_ptr<std::function<double()>> checksum);

/// The registry names accepted by make_serve_kernel, in registry order.
[[nodiscard]] const std::vector<std::string>& serve_kernel_names();

}  // namespace aid::workloads
