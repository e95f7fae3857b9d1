// Self-tests of the benchmark's own machinery: span self time, the trace
// file round trip, metric-name validity (including every name listed in
// BENCHMARK.json, passed as argv[1]), SHA-256, and that the open-loop
// generator charges a server stall to the requests queued behind it.
//
//   perfbench_selftest [path/to/BENCHMARK.json]
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "openloop.h"
#include "sha256.h"
#include "span.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                 \
      ++g_failures;                                                  \
    }                                                                \
  } while (0)

perfbench::Span make_span(std::uint64_t id, std::uint64_t parent,
                          std::int64_t a, std::int64_t b) {
  perfbench::Span s;
  s.id = id;
  s.parent = parent;
  s.name = "layer.s" + std::to_string(id);
  s.start_ns = a;
  s.end_ns = b;
  s.tid = 1;
  return s;
}

void test_self_time() {
  // Parent [0, 100]; children overlap each other and one runs past the
  // parent's end; a grandchild must not count against the parent.
  const std::vector<perfbench::Span> spans = {
      make_span(1, 0, 0, 100),  make_span(2, 1, 10, 30),
      make_span(3, 1, 20, 40),  make_span(4, 1, 50, 60),
      make_span(5, 1, 90, 120), make_span(6, 4, 50, 55),
  };
  // Union of children inside the parent: [10,40] + [50,60] + [90,100].
  CHECK(std::fabs(perfbench::self_time_s(spans, 1) - 50e-9) < 1e-15);
  CHECK(std::fabs(perfbench::self_time_s(spans, 4) - 5e-9) < 1e-15);
  CHECK(std::fabs(perfbench::self_time_s(spans, 2) - 20e-9) < 1e-15);
  // No children: self time is the whole duration.
  const std::vector<perfbench::Span> lone = {make_span(1, 0, 5, 17)};
  CHECK(std::fabs(perfbench::self_time_s(lone, 1) - 12e-9) < 1e-15);
}

void test_trace_round_trip() {
  perfbench::Tracer tr;
  {
    perfbench::ScopedSpan top(&tr, "campaign");
    {
      perfbench::ScopedSpan call(&tr, "core.run_passive_campaign");
      tr.span(call.id()).args = {{"predict_s", 0.125}, {"observe_s", 1.0 / 3}};
    }
    perfbench::ScopedSpan exp(&tr, "trace.write_beacon_csv");
  }
  { perfbench::ScopedSpan second(&tr, "replay \"quoted\"\\name"); }
  const std::vector<perfbench::Span> spans = tr.spans();
  const std::string text = perfbench::chrome_trace_json(spans);
  const std::vector<perfbench::Span> back = perfbench::parse_chrome_trace(text);
  CHECK(back == spans);
  CHECK(back.size() == 4);
  CHECK(back[1].parent == back[0].id);
  CHECK(back[2].parent == back[0].id);
  CHECK(back[3].parent == 0);
  CHECK(back[1].args.at("observe_s") == 1.0 / 3);  // bit-exact doubles
  bool threw = false;
  try {
    (void)perfbench::parse_chrome_trace(text.substr(0, text.size() / 2));
  } catch (const std::exception&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    perfbench::Tracer empty;
    empty.end();
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
}

void test_metric_names(const char* benchmark_json) {
  CHECK(perfbench::valid_metric_name("wall_s"));
  CHECK(perfbench::valid_metric_name("svc.handle_us_p99.next_pass"));
  CHECK(perfbench::valid_metric_name("9lives-x.y_z"));
  CHECK(!perfbench::valid_metric_name(""));
  CHECK(!perfbench::valid_metric_name(".leading_dot"));
  CHECK(!perfbench::valid_metric_name("_leading_underscore"));
  CHECK(!perfbench::valid_metric_name("has space"));
  CHECK(!perfbench::valid_metric_name("slash/unit"));
  CHECK(!perfbench::valid_metric_name(std::string(65, 'a')));
  CHECK(perfbench::valid_metric_name(std::string(64, 'a')));
  if (benchmark_json == nullptr) return;

  std::ifstream in(benchmark_json);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  CHECK(!text.empty());
  // Every workload and metric name in BENCHMARK.json is valid and unique.
  std::set<std::string> names;
  std::size_t listed = 0;
  sinet::obs::JsonCursor cur(text);
  sinet::obs::parse_json_object(cur, [&](const std::string& key) {
    cur.skip_ws();
    if (!cur.peek_is('[')) {
      perfbench::detail::skip_json_value(cur);
      return;
    }
    sinet::obs::parse_json_array(cur, [&] {
      cur.skip_ws();
      if (!cur.peek_is('{')) {
        perfbench::detail::skip_json_value(cur);
        return;
      }
      sinet::obs::parse_json_object(cur, [&](const std::string& field) {
        cur.skip_ws();
        if (field == "name") {
          const std::string name = cur.parse_string();
          ++listed;
          if (!perfbench::valid_metric_name(name))
            std::fprintf(stderr, "invalid name in %s: %s\n", key.c_str(),
                         name.c_str());
          CHECK(perfbench::valid_metric_name(name));
          CHECK(names.insert(name).second);
        } else {
          perfbench::detail::skip_json_value(cur);
        }
      });
    });
  });
  CHECK(listed > 0);
}

void test_sha256() {
  const auto hex = [](const std::string& s) {
    perfbench::Sha256 h;
    h.update(s.data(), s.size());
    return h.hex();
  };
  CHECK(hex("") ==
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  CHECK(hex("abc") ==
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  CHECK(hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq") ==
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // The stream sink agrees with the one-shot hash across buffer refills.
  std::string big;
  for (int i = 0; i < 20000; ++i) big += "row," + std::to_string(i) + "\n";
  perfbench::HashingBuf sink;
  std::ostream os(&sink);
  for (char c : big) os << c;
  os.flush();
  CHECK(sink.lines() == 20000);
  CHECK(sink.bytes() == big.size());
  CHECK(sink.hex() == hex(big));
  // Taking the digest neither changes the count nor ends the stream.
  CHECK(sink.bytes() == big.size());
  os << "tail\n";
  os.flush();
  CHECK(sink.hex() == hex(big + "tail\n"));
}

/// One-connection line server: answers {"id":N,"ok":true} to each line in
/// order, sleeping `stall_ms` before answering request `stall_id`.
class FakeServer {
 public:
  FakeServer(std::uint64_t stall_id, int stall_ms) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 4);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, stall_id, stall_ms] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      std::string inbox;
      char chunk[4096];
      for (;;) {
        const ssize_t k = ::recv(fd, chunk, sizeof(chunk), 0);
        if (k <= 0) break;
        inbox.append(chunk, static_cast<std::size_t>(k));
        std::size_t nl;
        while ((nl = inbox.find('\n')) != std::string::npos) {
          const std::string line = inbox.substr(0, nl);
          inbox.erase(0, nl + 1);
          const std::size_t at = line.find("\"id\":") + 5;
          const std::uint64_t id = std::stoull(line.substr(at));
          if (id == stall_id)
            std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
          const std::string reply =
              "{\"id\":" + std::to_string(id) + ",\"ok\":true}\n";
          (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
        }
      }
      ::close(fd);
    });
  }
  ~FakeServer() {
    thread_.join();
    ::close(listen_fd_);
  }
  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;
  [[nodiscard]] int port() const { return port_; }

 private:
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

std::vector<std::string> id_lines(std::size_t n) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < n; ++i)
    lines.push_back("{\"id\":" + std::to_string(i + 1) + "}\n");
  return lines;
}

void test_stall_raises_due_time_latency() {
  // 400 requests at 1000/s; the handler stalls 200 ms on request 101
  // (due at 100 ms). Requests 102..~300 are due while it stalls, so
  // measured from when they were due they wait up to ~200 ms, even though
  // each is sent on time and answered instantly once the stall ends.
  constexpr int kStallMs = 200;
  std::vector<double> latency;
  std::size_t ok = 0;
  {
    FakeServer server(101, kStallMs);
    perfbench::Generator gen(server.port(), 1, 5.0);
    const perfbench::PhaseStats st = gen.open_loop(id_lines(400), 1, 1000.0);
    latency = st.latency_ms;
    ok = st.ok;
    CHECK(st.failed == 0);
    CHECK(st.sent == 400);
    // The generator itself kept to the schedule.
    CHECK(*std::max_element(st.late_ms.begin(), st.late_ms.end()) < 50.0);
  }
  CHECK(ok == 400);
  std::sort(latency.begin(), latency.end());
  CHECK(latency.back() >= 0.9 * kStallMs);
  const auto queued = std::count_if(latency.begin(), latency.end(),
                                    [](double ms) { return ms > 50.0; });
  CHECK(queued >= 120);  // ~150 requests were due >50 ms before the stall ended
  // Without a stall the same schedule is answered promptly.
  {
    FakeServer server(0, 0);
    perfbench::Generator gen(server.port(), 1, 5.0);
    const perfbench::PhaseStats st = gen.open_loop(id_lines(400), 1, 1000.0);
    CHECK(st.ok == 400);
    std::vector<double> v = st.latency_ms;
    std::sort(v.begin(), v.end());
    CHECK(v[v.size() / 2] < 20.0);
  }
}

void test_reply_classification() {
  std::uint64_t id = 0;
  CHECK(perfbench::classify_reply(
            "{\"id\":7,\"ok\":true,\"passes\":[{\"a\":1.5e3}],\"x\":false}",
            id) == perfbench::Reply::kOk);
  CHECK(id == 7);
  CHECK(perfbench::classify_reply(
            "{\"ok\":false,\"error\":\"overloaded\",\"id\":3}", id) ==
        perfbench::Reply::kShed);
  CHECK(perfbench::classify_reply("{\"ok\":false,\"error\":\"parse\"}", id) ==
        perfbench::Reply::kBad);
  CHECK(perfbench::classify_reply("{\"id\":7,\"ok\":tru", id) ==
        perfbench::Reply::kBad);
}

}  // namespace

int main(int argc, char** argv) {
  test_self_time();
  test_trace_round_trip();
  test_metric_names(argc > 1 ? argv[1] : nullptr);
  test_sha256();
  test_reply_classification();
  test_stall_raises_due_time_latency();
  if (g_failures == 0) std::printf("perfbench self-tests passed\n");
  return g_failures == 0 ? 0 : 1;
}
