// Client for the axc_serve daemon.
//
//   axc_client --socket PATH <get|status|wait|table> --spec FILE
//              [--budget B] [--timeout-ms N] [--out F]
//              [--retry N] [--retry-delay ms]
//   axc_client key --spec FILE
//
// --retry N retries a refused/missing socket up to N times with bounded
// exponential backoff starting at --retry-delay ms (default 100, doubling,
// capped at 5 s per wait) — so scripted clients ride out a server restart
// window instead of hard-failing on ECONNREFUSED.  Only the *connect* is
// retried; once a connection is up, a failed exchange is a real error.
//
// Sends one request (the sweep_spec in FILE, "axc-sweep-spec v2" text)
// over the Unix-domain socket and reports the reply: the status line goes
// to stderr, a payload (the front or table bytes, exactly as stored) to
// stdout or --out.  `key` needs no server — it prints the spec's front
// store key (result_store::format_key of store_key()), so shell scripts
// can cross-check a served front against `axc_store get front <key>`.
//
// Exit codes map the reply status so scripts can branch without parsing:
//   0  hit (payload delivered) — also `status` reporting hit
//   3  miss-enqueued / queued / running (ask again, or use `wait`)
//   4  miss-rejected / failed / draining / timeout
//   1  transport or protocol error
//   2  usage
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "core/result_server.h"
#include "core/result_store.h"
#include "core/shard_runner.h"
#include "support/net.h"

namespace {

constexpr const char* kUsage =
    "usage: axc_client --socket PATH <get|status|wait|table> --spec FILE\n"
    "                  [--budget B] [--timeout-ms N] [--out F]\n"
    "                  [--retry N] [--retry-delay ms]\n"
    "       axc_client key --spec FILE\n";

int usage() {
  std::fputs(kUsage, stderr);
  return 2;
}

int status_exit_code(const std::string& status) {
  if (status == "hit") return 0;
  if (status == "miss-enqueued" || status == "queued" ||
      status == "running") {
    return 3;
  }
  if (status == "miss-rejected" || status == "failed" ||
      status == "draining" || status == "timeout") {
    return 4;
  }
  return 1;  // malformed / unknown / error
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path, verb, spec_path, out_path;
  std::size_t retries = 0;
  long long retry_delay_ms = 100;
  axc::core::serve_request request;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--spec" && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (arg == "--budget" && i + 1 < argc) {
      request.budget = std::strtod(argv[++i], nullptr);
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      request.timeout_ms = std::strtoll(argv[++i], nullptr, 10);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--retry" && i + 1 < argc) {
      retries = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--retry-delay" && i + 1 < argc) {
      retry_delay_ms = std::strtoll(argv[++i], nullptr, 10);
    } else if (!arg.empty() && arg[0] != '-' && verb.empty()) {
      verb = arg;
    } else {
      return usage();
    }
  }
  if (verb.empty() || spec_path.empty()) return usage();

  auto spec = axc::core::sweep_spec::read_file(spec_path);
  if (!spec) return 1;

  if (verb == "key") {
    std::printf(
        "%s\n",
        axc::core::result_store::format_key(spec->store_key()).c_str());
    return 0;
  }
  if (verb != "get" && verb != "status" && verb != "wait" &&
      verb != "table") {
    return usage();
  }
  if (socket_path.empty()) return usage();
  request.verb = verb;
  request.spec = *std::move(spec);

  auto stream = axc::support::net::unix_stream::connect(socket_path);
  // Bounded exponential backoff over the connect only: a restarting server
  // refuses (or hasn't re-bound) its socket for a window, and a scripted
  // client should ride that out rather than fail the pipeline.
  long long delay_ms = std::max(1ll, retry_delay_ms);
  for (std::size_t attempt = 0; !stream && attempt < retries; ++attempt) {
    std::fprintf(stderr,
                 "axc_client: cannot connect to %s; retrying in %lld ms "
                 "(%zu/%zu)\n",
                 socket_path.c_str(), delay_ms, attempt + 1, retries);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    delay_ms = std::min(delay_ms * 2, 5000ll);
    stream = axc::support::net::unix_stream::connect(socket_path);
  }
  if (!stream) {
    std::fprintf(stderr, "axc_client: cannot connect to %s\n",
                 socket_path.c_str());
    return 1;
  }
  if (!stream->send(axc::core::encode_request(request))) {
    std::fprintf(stderr, "axc_client: send failed\n");
    return 1;
  }
  axc::support::net::frame_error error =
      axc::support::net::frame_error::none;
  // Fronts are small but tables for wide components are not; accept up to
  // 64 MiB before calling a reply hostile.
  const auto frame = stream->receive(64u << 20, &error);
  if (!frame) {
    std::fprintf(stderr, "axc_client: no reply (frame error %d)\n",
                 static_cast<int>(error));
    return 1;
  }
  const auto reply = axc::core::parse_reply(*frame);
  if (!reply) {
    std::fprintf(stderr, "axc_client: unparseable reply\n");
    return 1;
  }
  std::fprintf(stderr, "axc_client: status %s%s%s\n", reply->status.c_str(),
               reply->key.empty() ? "" : " key ", reply->key.c_str());
  if (reply->payload) {
    if (out_path.empty()) {
      std::fwrite(reply->payload->data(), 1, reply->payload->size(), stdout);
    } else {
      std::ofstream os(out_path, std::ios::binary | std::ios::trunc);
      os.write(reply->payload->data(),
               static_cast<std::streamsize>(reply->payload->size()));
      os.flush();
      if (!os) {
        std::fprintf(stderr, "axc_client: cannot write %s\n",
                     out_path.c_str());
        return 1;
      }
    }
  }
  return status_exit_code(reply->status);
}
