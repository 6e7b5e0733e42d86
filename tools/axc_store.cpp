// Result-store maintenance CLI.
//
//   axc_store --store D put <kind> <key> <file>    store a file's bytes
//   axc_store --store D get <kind> <key> [--out F] print (or write) bytes
//   axc_store --store D ls [--kind K]              list live entries
//   axc_store --store D scrub                      quarantine corrupt objects
//   axc_store --store D gc                         drop unreferenced objects
//
// Thin shell over core::result_store (see src/core/README.md for the
// on-disk layout).  Opening a store with a damaged or missing index is not
// an error — it is rebuilt from the object files and the rebuild/salvage is
// reported on stderr.  `scrub` never deletes: corrupt objects are renamed
// into <D>/quarantine/ and their entries dropped, so the healthy set keeps
// serving.  Exit codes: 0 ok, 1 operation failed (missing key, corrupt
// object, unwritable store), 2 usage.  `scrub` exits 0 even when it
// quarantined (the store is healthy *after* scrubbing); `ls` prints
// `<kind> <key> <hash> <size> <payload-crc>` per entry (--kind filters to
// one kind — the operator's view of a serving store's fronts or tables).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/result_store.h"
#include "support/journal.h"

namespace {

constexpr const char* kUsage =
    "usage: axc_store --store D put <kind> <key> <file>\n"
    "       axc_store --store D get <kind> <key> [--out F]\n"
    "       axc_store --store D ls [--kind K]\n"
    "       axc_store --store D scrub\n"
    "       axc_store --store D gc\n";

int usage() {
  std::fputs(kUsage, stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string store_dir;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--store" && i + 1 < argc) {
      store_dir = argv[++i];
    } else {
      args.push_back(arg);
    }
  }
  if (store_dir.empty() || args.empty()) return usage();

  axc::core::store_open_report report;
  auto store = axc::core::result_store::open(store_dir, &report);
  if (!store) {
    std::fprintf(stderr, "axc_store: cannot open store at %s\n",
                 store_dir.c_str());
    return 1;
  }
  if (report.index_rebuilt) {
    std::fprintf(stderr,
                 "axc_store: index missing or damaged; rebuilt from %zu "
                 "object(s)\n",
                 report.entries);
  } else if (report.index_salvaged) {
    std::fprintf(stderr,
                 "axc_store: damaged index records dropped; %zu entries "
                 "salvaged\n",
                 report.entries);
  }

  const std::string& cmd = args[0];
  if (cmd == "put" && args.size() == 4) {
    std::ifstream is(args[3], std::ios::binary);
    if (!is) {
      std::fprintf(stderr, "axc_store: cannot read %s\n", args[3].c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << is.rdbuf();
    const auto hash = store->put(args[1], args[2], buffer.str());
    if (!hash) {
      std::fprintf(stderr, "axc_store: put failed\n");
      return 1;
    }
    std::printf("%s\n", axc::support::hex16(*hash).c_str());
    return 0;
  }
  if (cmd == "get" && (args.size() == 3 || args.size() == 5)) {
    std::string out_path;
    if (args.size() == 5) {
      if (args[3] != "--out") return usage();
      out_path = args[4];
    }
    const auto bytes = store->get(args[1], args[2]);
    if (!bytes) {
      std::fprintf(stderr, "axc_store: no healthy object for (%s, %s)\n",
                   args[1].c_str(), args[2].c_str());
      return 1;
    }
    if (out_path.empty()) {
      std::fwrite(bytes->data(), 1, bytes->size(), stdout);
      return 0;
    }
    std::ofstream os(out_path, std::ios::binary | std::ios::trunc);
    os.write(bytes->data(), static_cast<std::streamsize>(bytes->size()));
    os.flush();
    if (!os) {
      std::fprintf(stderr, "axc_store: cannot write %s\n", out_path.c_str());
      return 1;
    }
    return 0;
  }
  if (cmd == "ls" && (args.size() == 1 || args.size() == 3)) {
    std::string kind;
    if (args.size() == 3) {
      if (args[1] != "--kind") return usage();
      kind = args[2];
    }
    for (const auto& entry : store->entries(kind)) {
      std::printf("%s %s %s %llu %s\n", entry.kind.c_str(),
                  entry.key.c_str(), axc::support::hex16(entry.hash).c_str(),
                  static_cast<unsigned long long>(entry.size),
                  axc::support::hex8(entry.payload_crc).c_str());
    }
    return 0;
  }
  if (cmd == "scrub" && args.size() == 1) {
    const auto scrub = store->scrub();
    std::printf(
        "scrub: %zu object(s) checked, %zu quarantined, %zu index "
        "entr%s dropped\n",
        scrub.objects_checked, scrub.quarantined, scrub.entries_dropped,
        scrub.entries_dropped == 1 ? "y" : "ies");
    return 0;
  }
  if (cmd == "gc" && args.size() == 1) {
    const auto gc = store->gc();
    std::printf("gc: %zu object(s) removed, %llu bytes reclaimed\n",
                gc.objects_removed,
                static_cast<unsigned long long>(gc.bytes_reclaimed));
    return 0;
  }
  return usage();
}
