// axbench: the repository's end-to-end + per-layer benchmark driver.
//
//   axbench --workload <sweep_mult8|serve_mixed> --seed N
//           --seconds S --trace <0|1> --scratch DIR --results DIR [--short]
//   axbench --unit-tests
//
// Prints a human-readable report (box fingerprint, every metric with its
// unit and sample count) and, as the last line of stdout, one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.  Exits 1 when an
// output check failed, 2 on bad arguments, 3 when the build is not an
// optimized Release build (nothing is timed then).
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <fcntl.h>
#include <unistd.h>

#include "common.h"
#include "metrics/scan_kernels.h"
#include "support/checksum.h"

namespace {

namespace fs = std::filesystem;
using namespace axbench;

constexpr const char* kUsage =
    "usage: axbench --workload <sweep_mult8|serve_mixed> --seed N\n"
    "               --seconds S --trace <0|1> --scratch DIR --results DIR\n"
    "               [--short]\n"
    "       axbench --unit-tests\n";

std::string read_text(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string trim(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

std::string cpu_model() {
  std::istringstream in(read_text("/proc/cpuinfo"));
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return trim(line.substr(colon + 2));
    }
  }
  return "unknown";
}

/// HEAD's sha when the sources sit in a git checkout, else "none".
std::string git_sha(const fs::path& root) {
  const std::string head = trim(read_text(root / ".git" / "HEAD"));
  if (head.rfind("ref: ", 0) != 0) return head.empty() ? "none" : head;
  const std::string ref = head.substr(5);
  const std::string sha = trim(read_text(root / ".git" / ref));
  if (!sha.empty()) return sha;
  std::istringstream packed(read_text(root / ".git" / "packed-refs"));
  for (std::string line; std::getline(packed, line);) {
    if (line.size() > 41 && line.substr(41) == ref) return line.substr(0, 40);
  }
  return "none";
}

/// CRC32 over the library and tool sources, so a record identifies the
/// code it measured even where there is no git metadata.
std::string source_digest(const fs::path& root) {
  std::vector<fs::path> files;
  for (const char* dir : {"src", "tools"}) {
    std::error_code ec;
    for (fs::recursive_directory_iterator it(root / dir, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file()) files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());
  std::string all;
  for (const fs::path& f : files) {
    all += fs::relative(f, root).string();
    all += read_text(f);
  }
  char hex[16];
  std::snprintf(hex, sizeof hex, "%08x", axc::support::crc32(all));
  return hex;
}

struct fingerprint {
  unsigned nproc{1};
  std::string cpu;
  std::string simd;
  std::string build_type;
  std::string git;
  std::string sources;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metrics_json(const std::vector<metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const metric& m = metrics[i];
    out += (i ? ", \"" : "\"") + json_escape(m.name) + "\": {\"value\": " +
           number(m.value) + ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  return out + "}";
}

bool write_record(const context& ctx, const fingerprint& box,
                  const outcome& out, bool correct) {
  const std::string path = ctx.results_dir + "/" + ctx.workload + "-seed" +
                           std::to_string(ctx.seed) + "-trace" +
                           (ctx.trace ? "1" : "0") + ".json";
  std::ofstream f(path);
  f << "{\"workload\": \"" << ctx.workload << "\", \"seed\": " << ctx.seed
    << ", \"seconds\": " << number(ctx.seconds)
    << ", \"trace\": " << (ctx.trace ? 1 : 0) << ",\n \"box\": {\"nproc\": "
    << box.nproc << ", \"cpu\": \"" << json_escape(box.cpu)
    << "\", \"simd\": \"" << box.simd << "\", \"build_type\": \""
    << json_escape(box.build_type) << "\", \"git_sha\": \""
    << json_escape(box.git) << "\", \"source_crc32\": \"" << box.sources
    << "\"},\n \"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
    << ",\n \"metrics\": " << metrics_json(out.metrics)
    << ",\n \"details\": " << metrics_json(out.details)
    << ",\n \"errors\": [";
  for (std::size_t i = 0; i < out.errors.size() && i < 50; ++i) {
    f << (i ? ", \"" : "\"") << json_escape(out.errors[i]) << "\"";
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

void print_metrics(const char* title, const std::vector<metric>& metrics) {
  std::printf("%s\n", title);
  for (const metric& m : metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  context ctx;
  std::string trace_arg;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--unit-tests") {
      return run_unit_tests();
    } else if (arg == "--workload" && has_value) {
      ctx.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      ctx.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      ctx.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (arg == "--trace" && has_value) {
      trace_arg = argv[++i];
    } else if (arg == "--scratch" && has_value) {
      ctx.run_dir = argv[++i];
    } else if (arg == "--results" && has_value) {
      ctx.results_dir = argv[++i];
    } else if (arg == "--short") {
      ctx.short_mode = true;
    } else {
      std::fputs(kUsage, stderr);
      return 2;
    }
  }
  if ((ctx.workload != "sweep_mult8" && ctx.workload != "serve_mixed") ||
      !have_seed || !have_seconds || !(ctx.seconds > 0.0) ||
      (trace_arg != "0" && trace_arg != "1") || ctx.run_dir.empty() ||
      ctx.results_dir.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  ctx.trace = trace_arg == "1";

  fingerprint box;
  box.build_type = AXBENCH_BUILD_TYPE;
  if (box.build_type != "Release") {
    std::fprintf(stderr,
                 "axbench: refusing to time a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 box.build_type.c_str());
    return 3;
  }
  const fs::path exe = fs::read_symlink("/proc/self/exe");
  ctx.bin_dir = (exe.parent_path() / "axc").string();
  for (const char* tool :
       {"axc_sweep", "axc_worker", "axc_serve", "axc_client"}) {
    if (::access(ctx.tool(tool).c_str(), X_OK) != 0) {
      std::fprintf(stderr, "axbench: missing %s\n", ctx.tool(tool).c_str());
      return 2;
    }
  }
  ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
  const fs::path root = fs::current_path();
  box.nproc = ctx.nproc;
  box.cpu = cpu_model();
  box.simd = axc::simd::level_name(
      axc::metrics::resolve_scan_level(axc::simd::level::automatic));
  box.git = git_sha(root);
  box.sources = source_digest(root);

  // A client writing to a daemon that hung up must see EPIPE, not die.
  std::signal(SIGPIPE, SIG_IGN);
  std::error_code ec;
  fs::remove_all(ctx.run_dir, ec);
  fs::create_directories(ctx.run_dir);
  fs::create_directories(ctx.results_dir);

  // Workers that in-process run_sweep / result_server start inherit
  // stdout; park it in a log while the workload runs so the report (and
  // its final JSON line) is the only thing on the real stdout.
  std::fflush(stdout);
  const int report_fd = ::dup(STDOUT_FILENO);
  const std::string children_log = ctx.results_dir + "/" + ctx.workload +
                                   "-children.log";
  const int log_fd =
      ::open(children_log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (report_fd < 0 || log_fd < 0 || ::dup2(log_fd, STDOUT_FILENO) < 0) {
    std::fprintf(stderr, "axbench: cannot redirect stdout\n");
    return 2;
  }
  ::close(log_fd);

  outcome out;
  run_workload(ctx, out);
  fs::remove_all(ctx.run_dir, ec);
  std::fflush(stdout);
  ::dup2(report_fd, STDOUT_FILENO);
  ::close(report_fd);

  const bool correct = out.failed == 0 && out.errors.empty() &&
                       out.attempted > 0;
  std::printf("axbench %s seed %llu, %.0f s, trace %d%s\n",
              ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
              ctx.seconds, ctx.trace ? 1 : 0,
              ctx.short_mode ? " (short)" : "");
  std::printf("box: nproc %u, cpu %s, simd %s, build %s, git %s, "
              "sources crc32 %s\n",
              box.nproc, box.cpu.c_str(), box.simd.c_str(),
              box.build_type.c_str(), box.git.c_str(), box.sources.c_str());
  print_metrics(ctx.trace ? "per-layer:" : "end-to-end:", out.metrics);
  if (!out.details.empty()) print_metrics("details:", out.details);
  for (std::size_t i = 0; i < out.errors.size() && i < 20; ++i) {
    std::printf("error: %s\n", out.errors[i].c_str());
  }
  if (!write_record(ctx, box, out, correct)) {
    std::fprintf(stderr, "axbench: cannot write the result record\n");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              metrics_json(out.metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
