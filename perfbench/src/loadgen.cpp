#include "loadgen.hpp"

#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ccq/net/socket.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::string encode_query(const LoadQuery& q, std::size_t index, bool traced)
{
    ccq::Request request;
    request.op = q.op;
    request.from = q.from;
    request.to = q.to;
    if (q.op == ccq::Opcode::k_nearest) request.k = kNearestK;
    std::string body = ccq::encode_request(request);
    if (traced)
        body = ccq::wrap_trace_envelope(ccq::TraceContext{index + 1, /*sampled=*/true}, body);
    return ccq::encode_frame(body);
}

/// Nonblocking loopback connections behind one epoll descriptor.  Replies
/// come back in send order per connection, so each connection keeps the
/// indices of its requests in flight.
class Multiplexer {
public:
    Multiplexer(int port, int connections) : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC))
    {
        if (epoll_fd_ < 0) throw std::runtime_error("loadgen: epoll_create1 failed");
        try {
            conns_.resize(static_cast<std::size_t>(std::max(1, connections)));
            for (std::size_t c = 0; c < conns_.size(); ++c) {
                conns_[c].stream = ccq::TcpStream::connect("127.0.0.1", port);
                conns_[c].stream->set_nonblocking(true);
                epoll_event ev{};
                ev.events = conns_[c].armed;
                ev.data.u64 = c;
                if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conns_[c].stream->native_handle(),
                                &ev) != 0)
                    throw std::runtime_error("loadgen: epoll_ctl failed");
            }
        } catch (...) {
            ::close(epoll_fd_);
            throw;
        }
    }
    ~Multiplexer() { ::close(epoll_fd_); }
    Multiplexer(const Multiplexer&) = delete;
    Multiplexer& operator=(const Multiplexer&) = delete;

    [[nodiscard]] std::size_t size() const noexcept { return conns_.size(); }

    /// Queues request `index` on connection `c`; a flush sends it.
    void queue(std::size_t c, std::size_t index, const std::string& frame)
    {
        conns_[c].out += frame;
        conns_[c].in_flight.push_back(index);
    }

    /// Writes what each socket takes without blocking: a loaded generator
    /// must never wait on a socket the server has paused.
    void flush_all()
    {
        for (std::size_t c = 0; c < conns_.size(); ++c)
            if (!conns_[c].out.empty()) flush(c);
    }

    /// Waits up to `timeout` for socket events, finishes pending sends, and
    /// hands every complete reply to on_reply(connection, index, reply,
    /// arrival time).
    void poll(const timespec& timeout,
              const std::function<void(std::size_t, std::size_t, std::string&&,
                                       Clock::time_point)>& on_reply)
    {
        epoll_event events[16];
        const int ready = ::epoll_pwait2(epoll_fd_, events, 16, &timeout, nullptr);
        if (ready < 0) {
            if (errno == EINTR) return;
            throw std::runtime_error("loadgen: epoll_wait failed");
        }
        for (int e = 0; e < ready; ++e) {
            const std::size_t c = events[e].data.u64;
            Connection& conn = conns_[c];
            if ((events[e].events & EPOLLOUT) != 0) flush(c);
            if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) continue;
            char buffer[64 * 1024];
            bool closed = false;
            while (true) {
                const ssize_t got =
                    ::recv(conn.stream->native_handle(), buffer, sizeof buffer, 0);
                if (got > 0) {
                    conn.decoder.feed(std::string_view(buffer, static_cast<std::size_t>(got)));
                    // A short read drained the socket: skip the recv that
                    // would only say EAGAIN.  The epoll is level-triggered,
                    // so later bytes (or a close) wake the next poll.
                    if (static_cast<std::size_t>(got) < sizeof buffer) break;
                    continue;
                }
                if (got < 0 && errno == EINTR) continue;
                if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
                closed = true;
                break;
            }
            const auto arrival = Clock::now();
            while (std::optional<std::string> reply = conn.decoder.next()) {
                if (conn.in_flight.empty())
                    throw std::runtime_error("loadgen: reply without a request in flight");
                const std::size_t index = conn.in_flight.front();
                conn.in_flight.pop_front();
                on_reply(c, index, std::move(*reply), arrival);
            }
            if (closed && !conn.in_flight.empty())
                throw std::runtime_error("loadgen: server closed a connection mid-load");
        }
    }

private:
    struct Connection {
        std::unique_ptr<ccq::TcpStream> stream;
        ccq::FrameDecoder decoder;
        std::string out;
        std::size_t out_offset = 0;
        std::deque<std::size_t> in_flight; ///< query indices, in send order
        std::uint32_t armed = EPOLLIN;
    };

    void flush(std::size_t c)
    {
        Connection& conn = conns_[c];
        while (conn.out_offset < conn.out.size()) {
            const ssize_t wrote =
                ::send(conn.stream->native_handle(), conn.out.data() + conn.out_offset,
                       conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
            if (wrote > 0) {
                conn.out_offset += static_cast<std::size_t>(wrote);
                continue;
            }
            if (wrote < 0 && errno == EINTR) continue;
            if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            throw std::runtime_error("loadgen: connection lost while sending");
        }
        if (conn.out_offset == conn.out.size()) {
            conn.out.clear();
            conn.out_offset = 0;
        }
        const std::uint32_t wanted = conn.out.empty() ? EPOLLIN : (EPOLLIN | EPOLLOUT);
        if (wanted == conn.armed) return;
        epoll_event ev{};
        ev.events = wanted;
        ev.data.u64 = c;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.stream->native_handle(), &ev) != 0)
            throw std::runtime_error("loadgen: epoll_ctl failed");
        conn.armed = wanted;
    }

    int epoll_fd_;
    std::vector<Connection> conns_;
};

/// CPU time the calling thread has used, seconds.
double thread_cpu_seconds()
{
    rusage usage{};
    if (::getrusage(RUSAGE_THREAD, &usage) != 0) return 0.0;
    const auto seconds = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

} // namespace

ClosedLoopResult run_closed_loop(int port, std::span<const LoadQuery> queries, int connections,
                                 int depth, std::size_t trace_every)
{
    const std::size_t total = queries.size();
    std::vector<std::string> frames(total);
    for (std::size_t i = 0; i < total; ++i)
        frames[i] = encode_query(queries[i], i, trace_every > 0 && i % trace_every == 0);

    Multiplexer mux(port, connections);
    ClosedLoopResult result;
    result.latency_us.assign(total, 0.0);
    result.late_us.reserve(total);
    result.reply_at_s.reserve(total);
    result.replies.resize(total);
    std::vector<Clock::time_point> sent_at(total);
    // Arrival times of the replies whose slots were refilled since the
    // last flush.
    std::vector<Clock::time_point> refilled;
    std::size_t sent = 0;
    std::size_t received = 0;
    const auto send_next = [&](std::size_t c) {
        sent_at[sent] = Clock::now();
        mux.queue(c, sent, frames[sent]);
        ++sent;
    };
    const double cpu0 = thread_cpu_seconds();
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < mux.size(); ++c)
        for (int d = 0; d < depth && sent < total; ++d) send_next(c);
    mux.flush_all();
    Clock::time_point last_reply = t0;
    const auto on_reply = [&](std::size_t c, std::size_t i, std::string&& reply,
                              Clock::time_point arrival) {
        result.latency_us[i] =
            std::chrono::duration<double, std::micro>(arrival - sent_at[i]).count();
        result.replies[i] = std::move(reply);
        result.reply_at_s.push_back(std::chrono::duration<double>(arrival - t0).count());
        ++received;
        last_reply = arrival;
        if (sent < total) {
            send_next(c);
            refilled.push_back(arrival);
        }
    };
    while (received < total) {
        mux.poll(timespec{0, 100'000'000}, on_reply);
        mux.flush_all();
        const auto handed = Clock::now();
        for (const Clock::time_point arrival : refilled)
            result.late_us.push_back(
                std::chrono::duration<double, std::micro>(handed - arrival).count());
        refilled.clear();
    }
    result.seconds = std::chrono::duration<double>(last_reply - t0).count();
    result.cpu_share = (thread_cpu_seconds() - cpu0) / std::max(result.seconds, 1e-9);
    return result;
}

} // namespace perfbench
