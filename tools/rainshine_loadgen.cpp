// rainshine_loadgen — HTTP client for the serving front-end: scripted
// single requests (the smoke tests' curl replacement) and open-loop load.
//
// Single request:
//   rainshine_loadgen --once --target /healthz [--method GET] [--host H]
//                     --port P [--body-file rows.csv] [--deadline-ms N]
//                     [--timeout-ms N]
//   Prints the response body to stdout and `status NNN` to stderr.
//   Exit codes: 0 on 2xx, 1 on any other status, 3 on transport failure.
//
// Open-loop load against POST /score:
//   rainshine_loadgen --port P --body-file rows.csv [--rps R]
//                     [--duration-ms N] [--threads N] [--retries N]
//                     [--deadline-ms N] [--seed S]
//   Request k is due at start + k/rps regardless of how request k-1 fared
//   (coordinated omission is not hidden); 503s retry with capped
//   exponential backoff. Prints a one-object JSON report to stdout:
//   scheduled/ok/shed/failed counts, p50/p99/p999 latency, shed rate.
//
// Exit codes (load mode): 0 if every scheduled tick got SOME final answer
// (shed-then-exhausted counts as failed but still exits 0 — overload is a
// behaviour being measured, not an error), 2 usage, 3 if nothing at all
// could be sent.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "rainshine/net/loadgen.hpp"
#include "rainshine/util/strings.hpp"

using namespace rainshine;

namespace {

struct Options {
  bool once = false;
  std::string method = "GET";
  std::string target = "/healthz";
  std::string body_file;
  std::optional<long long> deadline_ms;
  std::chrono::milliseconds timeout{5000};
  net::LoadGenConfig load;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --port P [--host H] [--body-file rows.csv] [--deadline-ms N]\n"
      "        (--once [--method M] [--target /path] [--timeout-ms N]\n"
      "         | [--rps R] [--duration-ms N] [--threads N] [--retries N] "
      "[--seed S])\n",
      argv0);
  std::exit(2);
}

const char* need_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage(argv[0]);
  return argv[++i];
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--once") opt.once = true;
    else if (a == "--method") opt.method = need_value(argc, argv, i);
    else if (a == "--target") opt.target = need_value(argc, argv, i);
    else if (a == "--body-file") opt.body_file = need_value(argc, argv, i);
    else if (a == "--host") opt.load.host = need_value(argc, argv, i);
    else if (a == "--port") {
      long long port = 0;
      if (!util::parse_int(need_value(argc, argv, i), port) || port < 0 ||
          port > 65535) {
        usage(argv[0]);
      }
      opt.load.port = static_cast<std::uint16_t>(port);
    }
    else if (a == "--deadline-ms")
      opt.deadline_ms = std::strtoll(need_value(argc, argv, i), nullptr, 10);
    else if (a == "--timeout-ms")
      opt.timeout = std::chrono::milliseconds(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--rps") opt.load.rps = std::atof(need_value(argc, argv, i));
    else if (a == "--duration-ms")
      opt.load.duration = std::chrono::milliseconds(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--threads")
      opt.load.num_threads = static_cast<std::size_t>(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--retries")
      opt.load.max_retries = std::atoi(need_value(argc, argv, i));
    else if (a == "--seed")
      opt.load.seed = std::strtoull(need_value(argc, argv, i), nullptr, 10);
    else usage(argv[0]);
  }
  if (opt.load.port == 0) usage(argv[0]);
  if (!opt.once && opt.body_file.empty()) usage(argv[0]);
  return opt;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  std::string body;
  if (!opt.body_file.empty()) body = slurp(opt.body_file);

  if (opt.once) {
    std::vector<net::HttpHeader> headers;
    if (opt.deadline_ms) {
      headers.push_back({"X-Deadline-Ms", std::to_string(*opt.deadline_ms)});
    }
    const std::string method =
        !opt.body_file.empty() && opt.method == "GET" ? "POST" : opt.method;
    net::ResponseOutcome resp;
    try {
      resp = net::request_once(opt.load.host, opt.load.port, method,
                               opt.target, body, headers, opt.timeout);
    } catch (const net::io_error& e) {
      std::fprintf(stderr, "transport error: %s\n", e.what());
      return 3;
    }
    if (!resp.ok()) {
      std::fprintf(stderr, "bad response: %s\n",
                   std::string(to_string(resp.error)).c_str());
      return 3;
    }
    std::fwrite(resp.body.data(), 1, resp.body.size(), stdout);
    std::fprintf(stderr, "status %d\n", resp.status);
    return resp.status >= 200 && resp.status < 300 ? 0 : 1;
  }

  opt.load.body = std::move(body);
  opt.load.deadline_ms = opt.deadline_ms;
  net::LoadGenReport report;
  try {
    report = net::run_load(opt.load);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
  std::fprintf(stdout, "%s\n", report.to_json().c_str());
  return report.attempts == 0 ? 3 : 0;
}
