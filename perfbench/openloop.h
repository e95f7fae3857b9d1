// Request generator for the serving workload: one thread drives a few
// TCP connections to a newline-delimited JSON server.
//
// Two disciplines:
//  - open loop: request i is due at t0 + i / rate, whatever the server
//    is doing, and its latency is measured from when it was due, so a
//    stall also charges the requests queued behind it. How late the
//    generator itself sent each request is recorded beside it;
//  - closed loop: each connection keeps a fixed number of requests
//    outstanding, so the completion rate is the server's capacity for
//    that mix.
// Every request carries an "id"; a response counts as a success only if
// it parses as JSON, echoes an outstanding id and says "ok":true.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

enum class Reply { kOk, kShed, kBad };

namespace detail {

inline void skip_json_value(sinet::obs::JsonCursor& cur) {
  cur.skip_ws();
  if (cur.peek_is('{')) {
    sinet::obs::parse_json_object(cur, [&](const std::string&) {
      skip_json_value(cur);
    });
  } else if (cur.peek_is('[')) {
    sinet::obs::parse_json_array(cur, [&] { skip_json_value(cur); });
  } else if (cur.peek_is('"')) {
    (void)cur.parse_string();
  } else if (cur.peek_is('t') || cur.peek_is('f')) {
    (void)cur.parse_bool();
  } else {
    (void)cur.parse_double();
  }
}

}  // namespace detail

/// Parse one response line; `id` receives the echoed id (0 if absent).
inline Reply classify_reply(const std::string& line, std::uint64_t& id) {
  id = 0;
  bool has_ok = false;
  bool ok = false;
  std::string error;
  try {
    sinet::obs::JsonCursor cur(line);
    sinet::obs::parse_json_object(cur, [&](const std::string& key) {
      cur.skip_ws();
      if (key == "id") {
        id = cur.parse_u64();
      } else if (key == "ok") {
        has_ok = true;
        ok = cur.parse_bool();
      } else if (key == "error" && cur.peek_is('"')) {
        error = cur.parse_string();
      } else {
        detail::skip_json_value(cur);
      }
    });
  } catch (const std::exception&) {
    return Reply::kBad;
  }
  if (has_ok && ok) return Reply::kOk;
  return error == "overloaded" ? Reply::kShed : Reply::kBad;
}

/// Outcome of one phase.
struct PhaseStats {
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t shed = 0;
  std::size_t failed = 0;  ///< bad replies, wrong ids, timeouts, I/O errors
  double elapsed_s = 0.0;  ///< first send to last reply
  std::vector<double> latency_ms;  ///< successful requests only
  std::vector<double> late_ms;     ///< open loop: send time - due time
};

class Generator {
 public:
  /// Connects `connections` sockets to 127.0.0.1:port; throws on failure.
  Generator(int port, std::size_t connections, double timeout_s)
      : timeout_s_(timeout_s) {
    for (std::size_t c = 0; c < connections; ++c) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (fd < 0 ||
          ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        if (fd >= 0) ::close(fd);
        close_all();
        throw std::runtime_error("cannot connect to port " +
                                 std::to_string(port));
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      conns_.push_back(Conn{fd, {}});
    }
  }
  ~Generator() { close_all(); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Send lines[i] (which must carry id first_id + i) at t0 + i / rate,
  /// round-robin over the connections.
  PhaseStats open_loop(std::span<const std::string> lines,
                       std::uint64_t first_id, double rate_rps) {
    PhaseStats st;
    const std::size_t n = lines.size();
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
    const auto due = [&](std::size_t i) {
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(i) / rate_rps));
    };
    std::vector<char> answered(n, 0);
    std::size_t next = 0;
    std::size_t done = 0;
    Clock::time_point last = t0;
    while (done < n) {
      Clock::time_point now = Clock::now();
      while (next < n && due(next) <= now) {
        st.late_ms.push_back(ms(now - due(next)));
        if (!send_line(conns_[next % conns_.size()], lines[next])) {
          answered[next] = 1;
          ++st.failed;
          ++done;
        }
        ++st.sent;
        ++next;
      }
      const Clock::time_point wake =
          next < n ? due(next) : last + to_duration(timeout_s_);
      if (next == n && Clock::now() >= wake) break;  // replies timed out
      poll_until(wake, /*spin=*/true, [&](const std::string& line, std::size_t) {
        std::uint64_t id = 0;
        const Reply r = classify_reply(line, id);
        const std::size_t i = static_cast<std::size_t>(id - first_id);
        if (id < first_id || i >= n || answered[i]) {
          ++st.failed;  // an id we never sent, or a second answer
          return;
        }
        answered[i] = 1;
        ++done;
        last = Clock::now();
        record(st, r, ms(last - due(i)));
      });
    }
    st.failed += n - done;
    st.elapsed_s = std::chrono::duration<double>(last - t0).count();
    return st;
  }

  /// Keep `depth` requests outstanding per connection until `seconds`
  /// have passed or the lines run out; latency is measured from each send.
  PhaseStats closed_loop(std::span<const std::string> lines,
                         std::uint64_t first_id, double seconds,
                         std::size_t depth = 1) {
    PhaseStats st;
    const std::size_t n = lines.size();
    std::vector<Clock::time_point> sent_at(n);
    std::vector<char> answered(n, 0);
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point stop = t0 + to_duration(seconds);
    std::size_t next = 0;
    std::size_t outstanding = 0;
    Clock::time_point last = t0;
    const auto send_next = [&](std::size_t c) {
      if (next >= n || Clock::now() >= stop) return;
      sent_at[next] = Clock::now();
      ++st.sent;
      if (send_line(conns_[c], lines[next])) {
        ++outstanding;
      } else {
        answered[next] = 1;
        ++st.failed;
      }
      ++next;
    };
    for (std::size_t k = 0; k < depth; ++k)
      for (std::size_t c = 0; c < conns_.size(); ++c) send_next(c);
    while (outstanding > 0) {
      const bool woke = poll_until(
          Clock::now() + to_duration(timeout_s_), /*spin=*/false,
          [&](const std::string& line, std::size_t c) {
            std::uint64_t id = 0;
            const Reply r = classify_reply(line, id);
            const std::size_t i = static_cast<std::size_t>(id - first_id);
            if (id < first_id || i >= next || answered[i]) {
              ++st.failed;
              return;
            }
            answered[i] = 1;
            --outstanding;
            last = Clock::now();
            record(st, r, ms(last - sent_at[i]));
            send_next(c);
          });
      if (!woke) break;  // replies timed out
    }
    st.failed += outstanding;
    st.elapsed_s = std::chrono::duration<double>(last - t0).count();
    return st;
  }

 private:
  struct Conn {
    int fd;
    std::string inbox;
  };

  void close_all() {
    for (const Conn& c : conns_)
      if (c.fd >= 0) ::close(c.fd);
    conns_.clear();
  }

  static double ms(Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  }
  static Clock::duration to_duration(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  }

  static void record(PhaseStats& st, Reply r, double latency_ms) {
    if (r == Reply::kOk) {
      ++st.ok;
      st.latency_ms.push_back(latency_ms);
    } else if (r == Reply::kShed) {
      ++st.shed;
    } else {
      ++st.failed;
    }
  }

  static bool send_line(const Conn& c, const std::string& line) {
    if (c.fd < 0) return false;
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t k =
          ::send(c.fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (k <= 0) return false;
      off += static_cast<std::size_t>(k);
    }
    return true;
  }

  /// Wait until `wake` for replies and hand each complete line to
  /// on_line(line, connection). Returns false only when the wait timed
  /// out with nothing to read. With `spin` the wait polls without
  /// sleeping, so the generator's own wake-up latency is not charged to
  /// the server; the open loop spins, the closed loop sleeps and leaves
  /// the CPUs to the server. A connection the server closed is dropped;
  /// its outstanding requests then time out as failures.
  template <typename OnLine>
  bool poll_until(Clock::time_point wake, bool spin, OnLine&& on_line) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) fds.push_back(pollfd{c.fd, POLLIN, 0});
    int ready = 0;
    if (spin) {
      timespec zero{0, 0};
      while ((ready = ::ppoll(fds.data(), fds.size(), &zero, nullptr)) == 0 &&
             Clock::now() < wake) {
      }
    } else {
      const auto left =
          std::max(wake - Clock::now(), Clock::duration::zero());
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
      timespec ts{static_cast<time_t>(ns / 1000000000),
                  static_cast<long>(ns % 1000000000)};
      ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    }
    if (ready == 0) return false;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (ready < 0 || fds[c].revents == 0) continue;
      char chunk[65536];
      const ssize_t k =
          ::recv(conns_[c].fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (k <= 0) {
        if (k == 0 || (errno != EAGAIN && errno != EINTR)) {
          ::close(conns_[c].fd);
          conns_[c].fd = -1;  // poll() ignores negative descriptors
        }
        continue;
      }
      std::string& inbox = conns_[c].inbox;
      inbox.append(chunk, static_cast<std::size_t>(k));
      std::size_t start = 0;
      for (std::size_t nl; (nl = inbox.find('\n', start)) != std::string::npos;
           start = nl + 1)
        on_line(inbox.substr(start, nl - start), c);
      inbox.erase(0, start);
    }
    return true;
  }

  std::vector<Conn> conns_;
  double timeout_s_;
};

}  // namespace perfbench
