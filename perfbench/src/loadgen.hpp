// Closed-loop load generator over the ccq wire protocol.  One thread
// multiplexes a few TCP connections with epoll and keeps a fixed number
// of requests in flight per connection, like callers that each wait for
// their reply.  A vCPU stall then delays only the requests in flight,
// which keeps the percentiles steady on hosts whose CPUs stall for
// milliseconds.
#ifndef PERFBENCH_LOADGEN_HPP
#define PERFBENCH_LOADGEN_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ccq/net/protocol.hpp"

namespace perfbench {

/// k of every k-nearest request the benchmark sends.
inline constexpr int kNearestK = 8;

struct LoadQuery {
    ccq::Opcode op = ccq::Opcode::distance; ///< distance, path or k_nearest
    ccq::NodeId from = 0;
    ccq::NodeId to = 0; ///< unused by k_nearest
};

struct ClosedLoopResult {
    std::vector<double> latency_us;   ///< per query: reply received - sent
    std::vector<double> late_us;      ///< per refill: handed to the socket - arrival of the
                                      ///< reply that freed its slot
    std::vector<double> reply_at_s;   ///< per reply, in arrival order: seconds since the first send
    std::vector<std::string> replies; ///< raw reply bodies, per query
    double seconds = 0.0;             ///< first send to last reply
    double cpu_share = 0.0;           ///< generator thread CPU time / seconds
};

/// Sends `queries` to 127.0.0.1:`port` over `connections` connections,
/// each keeping `depth` requests in flight: a new request leaves as soon
/// as a reply comes back.  Every `trace_every`-th query (0 = none)
/// carries a sampled trace envelope.  Frames are encoded before the clock
/// starts.  Throws std::runtime_error when a connection is refused or
/// lost.
[[nodiscard]] ClosedLoopResult run_closed_loop(int port, std::span<const LoadQuery> queries,
                                               int connections, int depth,
                                               std::size_t trace_every);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HPP
