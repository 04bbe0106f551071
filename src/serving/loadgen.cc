#include "serving/loadgen.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/strings.h"
#include "common/timer.h"
#include "serving/metrics.h"
#include "serving/net_util.h"
#include "serving/retry.h"

namespace ocular {

namespace {

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One client's connection state and tally.
struct ClientRun {
  int fd = -1;
  uint64_t ok_replies = 0;
  uint64_t error_replies = 0;
  uint64_t shed_retries = 0;
  uint64_t reconnects = 0;
  std::vector<double> latencies_us;
  Status status = Status::OK();
};

Status ConnectLoopback(uint16_t port, int* out_fd) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  // The workload is many small request lines; without NODELAY, Nagle
  // delays partial batches behind unacked data and the measurement turns
  // into a timer artifact.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status st = Status::IOError(std::string("connect 127.0.0.1:") +
                                      std::to_string(port) + ": " +
                                      std::strerror(errno));
    ::close(fd);
    return st;
  }
  *out_fd = fd;
  return Status::OK();
}

void RunClient(const LoadGenOptions& options, uint32_t client_index,
               ClientRun* run) {
  std::string read_buffer;
  std::string batch;
  std::string line;
  run->latencies_us.reserve(options.requests_per_client);
  // Offset clients into the user space so concurrent connections serve
  // different rows (a co-prime stride avoids aliasing when clients
  // divides num_users).
  uint64_t user_cursor =
      options.num_users == 0
          ? 0
          : (static_cast<uint64_t>(client_index) * 7919) % options.num_users;
  uint64_t remaining = options.requests_per_client;
  uint64_t sent = 0;  // per-client request sequence (history cadence)
  std::vector<uint32_t> batch_users;
  std::vector<std::vector<uint32_t>> batch_histories;  // empty = user slot
  while (remaining > 0) {
    const uint32_t depth = static_cast<uint32_t>(std::min<uint64_t>(
        std::max<uint32_t>(options.pipeline, 1), remaining));
    batch.clear();
    batch_users.clear();
    batch_histories.clear();
    for (uint32_t p = 0; p < depth; ++p) {
      const bool history_slot = options.history_every > 0 &&
                                options.num_items > 0 &&
                                sent % options.history_every == 0;
      ++sent;
      if (history_slot) {
        const uint64_t cursor =
            (static_cast<uint64_t>(client_index) << 32) | (sent - 1);
        std::vector<uint32_t> history = LoadGenHistory(
            cursor, options.history_len, options.num_items);
        batch += "{\"cmd\":\"recommend\",\"model\":\"" + options.model +
                 "\",\"history\":[";
        for (size_t n = 0; n < history.size(); ++n) {
          if (n > 0) batch += ',';
          batch += std::to_string(history[n]);
        }
        batch += "],\"m\":" + std::to_string(options.m) + "}\n";
        batch_users.push_back(0);
        batch_histories.push_back(std::move(history));
        continue;
      }
      uint32_t user;
      if (options.zipf_skew > 0.0 && options.num_users > 0) {
        // Bursty skew: a deterministic per-request u ∈ [0,1) raised to
        // zipf_skew concentrates the mass near user 0 — hot rows absorb
        // most of the burst, like real catalog traffic.
        uint64_t h = ((static_cast<uint64_t>(client_index) << 32) | sent) *
                         0x9e3779b97f4a7c15ULL +
                     0xbf58476d1ce4e5b9ULL;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        const double u01 =
            static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
        user = std::min(
            options.num_users - 1,
            static_cast<uint32_t>(static_cast<double>(options.num_users) *
                                  std::pow(u01, options.zipf_skew)));
      } else {
        user = static_cast<uint32_t>(user_cursor);
        user_cursor = options.num_users == 0
                          ? user_cursor + 1
                          : (user_cursor + 1) % options.num_users;
      }
      batch += "{\"cmd\":\"recommend\",\"model\":\"" + options.model +
               "\",\"user\":" + std::to_string(user) +
               ",\"m\":" + std::to_string(options.m) + "}\n";
      batch_users.push_back(user);
      batch_histories.emplace_back();
    }
    uint32_t attempt = 0;
    bool batch_done = false;
    while (!batch_done) {
      const double sent_us = NowMicros();
      bool disconnected = false;
      bool shed = false;
      uint64_t retry_after_ms = 50;
      if (!net::SendAll(run->fd, batch.data(), batch.size())) {
        if (!options.reconnect_on_close) {
          run->status = Status::IOError("write failed mid-run");
          ::close(run->fd);
          run->fd = -1;
          return;
        }
        disconnected = true;
      }
      const size_t latency_mark = run->latencies_us.size();
      uint64_t batch_ok = 0;
      uint64_t batch_err = 0;
      for (uint32_t p = 0; p < depth && !disconnected; ++p) {
        if (!net::ReadLine(run->fd, &read_buffer, &line)) {
          if (!options.reconnect_on_close) {
            run->status = Status::IOError(
                "connection closed before all replies arrived (" +
                std::to_string(remaining) + " outstanding)");
            ::close(run->fd);
            run->fd = -1;
            return;
          }
          disconnected = true;
          break;
        }
        if (retry::ParseShedReply(line, &retry_after_ms)) {
          shed = true;
          break;
        }
        run->latencies_us.push_back(NowMicros() - sent_us);
        if (StartsWith(line, "{\"ok\":true")) {
          ++batch_ok;
        } else {
          ++batch_err;
        }
        if (!batch_histories[p].empty()) {
          if (options.on_history_reply) {
            options.on_history_reply(batch_histories[p], line);
          }
        } else if (options.on_reply) {
          options.on_reply(batch_users[p], line);
        }
      }
      if (!shed && !disconnected) {
        run->ok_replies += batch_ok;
        run->error_replies += batch_err;
        remaining -= depth;
        batch_done = true;
        continue;
      }
      // Either the server 503'd this connection (accept queue full — it
      // answered without reading a single request) or, in fleet mode, the
      // connection simply died mid-batch (a proxy or replica restarting
      // under it). Both leave the whole batch outstanding: roll back,
      // back off, reconnect, and resend the identical bytes. Replies
      // consumed before the cut are re-validated on resend — the verbs
      // the generator sends are idempotent, so a duplicate hook call is
      // harmless.
      run->latencies_us.resize(latency_mark);
      read_buffer.clear();
      ::close(run->fd);
      run->fd = -1;
      if (shed && !options.retry_shed) {
        run->status =
            Status::IOError("connection shed with a 503 reply (retry_shed off)");
        return;
      }
      if (shed) {
        ++run->shed_retries;
      } else {
        ++run->reconnects;
      }
      for (;;) {
        if (attempt >= options.max_shed_retries) {
          run->status = Status::IOError(
              std::string(shed ? "connection shed with a 503 reply"
                               : "connection lost mid-run") +
              " after " + std::to_string(attempt) + " reconnect attempts");
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(
            retry::BackoffMs(retry_after_ms, client_index, attempt)));
        ++attempt;
        const Status reconnect = ConnectLoopback(options.port, &run->fd);
        if (reconnect.ok()) break;
        if (!options.reconnect_on_close) {
          run->status = reconnect;
          return;
        }
        // Fleet mode: the listener itself may be down for a moment (a
        // restarting proxy); a refused connect is one more attempt, not
        // the end of the run.
      }
    }
  }
  // Close as soon as this client is done: a daemon worker may be blocked
  // in read() on this connection, and with fewer workers than clients it
  // must move on to the next queued connection without waiting for the
  // whole fleet to finish.
  ::close(run->fd);
  run->fd = -1;
}

}  // namespace

std::vector<uint32_t> LoadGenHistory(uint64_t cursor, uint32_t len,
                                     uint32_t num_items) {
  std::vector<uint32_t> out;
  if (num_items == 0) return out;
  out.reserve(len);
  for (uint32_t j = 0; j < len; ++j) {
    // Stateless splitmix-style hash of (cursor, j): every request gets a
    // distinct, reproducible id sequence with no RNG object to thread
    // through the client fleet.
    uint64_t h = cursor * 0x9e3779b97f4a7c15ULL +
                 static_cast<uint64_t>(j) * 0xbf58476d1ce4e5b9ULL +
                 0x94d049bb133111ebULL;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    out.push_back(static_cast<uint32_t>(h % num_items));
  }
  return out;
}

Result<LoadGenResult> RunLoadGen(const LoadGenOptions& options) {
  if (options.port == 0) {
    return Status::InvalidArgument("loadgen needs a nonzero port");
  }
  if (options.clients == 0 || options.requests_per_client == 0) {
    return Status::InvalidArgument(
        "loadgen needs at least one client and one request");
  }
  if (options.history_every > 0 && options.num_items == 0) {
    return Status::InvalidArgument(
        "history traffic needs num_items (the catalog generated histories "
        "draw from)");
  }
  std::vector<ClientRun> runs(options.clients);
  // Every exit path below must release the fleet's sockets — a failed
  // run must not leak fds into a long-lived caller.
  const auto close_all = [&runs] {
    for (ClientRun& run : runs) {
      if (run.fd >= 0) ::close(run.fd);
      run.fd = -1;
    }
  };
  // Connect everything before the clock starts: connection setup is not
  // the thing being measured, and a late connect would undercount
  // concurrency for part of the run.
  for (uint32_t c = 0; c < options.clients; ++c) {
    const Status st = ConnectLoopback(options.port, &runs[c].fd);
    if (!st.ok()) {
      close_all();
      return st;
    }
  }

  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(options.clients);
  for (uint32_t c = 0; c < options.clients; ++c) {
    threads.emplace_back(RunClient, std::cref(options), c, &runs[c]);
  }
  for (std::thread& t : threads) t.join();
  const double seconds = watch.ElapsedSeconds();

  LoadGenResult result;
  std::vector<double> latencies;
  close_all();  // every client thread has joined; fds are all idle now
  for (ClientRun& run : runs) {
    if (!run.status.ok()) return run.status;
    result.ok_replies += run.ok_replies;
    result.error_replies += run.error_replies;
    result.shed_retries += run.shed_retries;
    result.reconnects += run.reconnects;
    latencies.insert(latencies.end(), run.latencies_us.begin(),
                     run.latencies_us.end());
  }
  result.requests = result.ok_replies + result.error_replies;
  result.seconds = seconds;
  result.requests_per_second =
      seconds > 0.0 ? static_cast<double>(result.requests) / seconds : 0.0;
  result.p50_latency_us = MergedPercentile(&latencies, 0.50);
  result.p99_latency_us = MergedPercentile(&latencies, 0.99);
  return result;
}

Result<IdleFloodResult> RunIdleFlood(const IdleFloodOptions& options) {
  if (options.port == 0) {
    return Status::InvalidArgument("idle flood needs a nonzero port");
  }
  Stopwatch watch;
  IdleFloodResult result;

  // The idle fleet: plain connected sockets, held. No thread each — a
  // connection the daemon holds for a fd must cost the generator no more
  // than a fd either, or 10k of them could not be simulated at all.
  std::vector<int> idle;
  idle.reserve(options.idle_conns);
  for (uint32_t i = 0; i < options.idle_conns; ++i) {
    int fd = -1;
    if (ConnectLoopback(options.port, &fd).ok()) {
      idle.push_back(fd);
    } else {
      ++result.connections_dropped;  // refused/shed at connect time
    }
  }

  std::atomic<bool> stop{false};

  // Slowloris sidecars: one thread dribbles a byte to every loris fd per
  // interval — none of them ever completes a request line, so a server
  // whose idle clock counts completed requests reaps them all.
  std::vector<int> loris(options.slow_writers, -1);
  for (int& fd : loris) {
    if (!ConnectLoopback(options.port, &fd).ok()) fd = -1;
  }
  std::thread loris_thread([&] {
    const std::string drip = R"({"cmd":"recommend","user":0,)";
    size_t at = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int& fd : loris) {
        if (fd < 0) continue;
        const char byte = drip[at % drip.size()];
        if (!net::SendAll(fd, &byte, 1)) {
          ::close(fd);
          fd = -1;
          ++result.slow_writers_reaped;
        }
      }
      ++at;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.slow_writer_interval_ms));
    }
  });

  // Never-reading sidecars: pipeline a pile of real requests, then go
  // silent without ever reading a reply. The server's outbound buffer
  // for these connections grows until its slow-consumer policy cuts
  // them loose; a blocking daemon would have wedged a worker instead.
  std::vector<int> mute(options.never_readers, -1);
  std::thread mute_thread([&] {
    std::string batch;
    for (uint64_t r = 0; r < options.never_reader_requests; ++r) {
      batch += "{\"cmd\":\"recommend\",\"model\":\"" + options.model +
               "\",\"user\":0,\"m\":" + std::to_string(options.m) + "}\n";
    }
    for (int& fd : mute) {
      if (!ConnectLoopback(options.port, &fd).ok()) fd = -1;
    }
    for (int& fd : mute) {
      if (fd < 0) continue;
      if (!net::SendAll(fd, batch.data(), batch.size())) {
        ::close(fd);
        fd = -1;
        ++result.never_readers_closed;
      }
    }
    // Hold without reading until the run ends; a reset from the server
    // (slow-consumer disconnect) surfaces on the final probe below.
  });

  // The bursty senders run *through* the flood — their throughput and
  // tail latency is what the connection core must protect.
  if (options.burst_clients > 0) {
    LoadGenOptions burst;
    burst.port = options.port;
    burst.clients = options.burst_clients;
    burst.requests_per_client = options.requests_per_client;
    burst.pipeline = options.pipeline;
    burst.m = options.m;
    burst.num_users = options.num_users;
    burst.model = options.model;
    burst.zipf_skew = options.zipf_skew;
    burst.retry_shed = options.retry_shed;
    burst.max_shed_retries = options.max_shed_retries;
    burst.on_reply = options.on_burst_reply;
    auto r = RunLoadGen(burst);
    if (!r.ok()) {
      stop.store(true, std::memory_order_relaxed);
      loris_thread.join();
      mute_thread.join();
      for (const int fd : idle) ::close(fd);
      for (const int fd : loris) {
        if (fd >= 0) ::close(fd);
      }
      for (const int fd : mute) {
        if (fd >= 0) ::close(fd);
      }
      return r.status();
    }
    result.burst_requests = r->requests;
    result.burst_ok = r->ok_replies;
    result.burst_errors = r->error_replies;
    result.shed_retries = r->shed_retries;
    result.burst_rps = r->requests_per_second;
    result.burst_p50_us = r->p50_latency_us;
    result.burst_p99_us = r->p99_latency_us;
  }

  // Keep the hostiles going for the full configured duration even when
  // the burst finished early (a short burst must not cut the slowloris
  // rehearsal short).
  while (watch.ElapsedSeconds() * 1000.0 <
         static_cast<double>(options.duration_ms)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_relaxed);
  loris_thread.join();
  mute_thread.join();

  // End-of-run health probe of the idle fleet: a held connection is an
  // open, silent socket. EAGAIN = healthy; EOF, reset, or any
  // unsolicited bytes (a 408/503 the server pushed) = dropped.
  for (const int fd : idle) {
    char probe;
    const ssize_t n = ::recv(fd, &probe, 1, MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      ++result.connections_held;
    } else {
      ++result.connections_dropped;
    }
    ::close(fd);
  }
  for (const int fd : loris) {
    if (fd >= 0) ::close(fd);
  }
  for (int& fd : mute) {
    if (fd < 0) continue;
    // A never-reader's socket holds unread replies whether or not the
    // server already cut it loose, so the probe drains: EAGAIN with the
    // buffer empty = the server is still patiently holding the backlog;
    // EOF or a reset under the drained bytes = the slow-consumer policy
    // disconnected it.
    char sink[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, sink, sizeof(sink), MSG_DONTWAIT);
      if (n > 0) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      ++result.never_readers_closed;
      break;
    }
    ::close(fd);
  }
  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace ocular
