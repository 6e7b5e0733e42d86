#include "core/result_store.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <system_error>
#include <unordered_set>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#endif

#include "support/checksum.h"
#include "support/fault.h"
#include "support/io.h"
#include "support/journal.h"

namespace axc::core {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kObjectMagic = "axc-object v1";
constexpr std::string_view kIndexMagic = "axc-store-index v1";
constexpr std::string_view kFrontMagic = "axc-front v1";
constexpr std::string_view kTableMagic = "axc-table v1";

// Fault points of the store write path (see result_store.h header comment).
constexpr std::string_view kFaultPutFail = "store-put-fail";
constexpr std::string_view kFaultPutTruncate = "store-put-truncate";
constexpr std::string_view kFaultPutDirsync = "store-put-dirsync-fail";
constexpr std::string_view kFaultIndexAppendFail = "store-index-append-fail";
constexpr std::string_view kFaultCrashMidAppend =
    "store-crash-mid-index-append";
// Deletes the object file right after put()'s existence probe — the window
// a concurrent gc (another process, stale index) wins the race in.
constexpr std::string_view kFaultPutRacingGc = "store-put-racing-gc";

[[nodiscard]] bool is_token(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return false;
  }
  return true;
}

/// Content address: the hash covers kind and key as well as the payload, so
/// the same bytes stored under two names are two objects — each object file
/// is self-describing and an index rebuild recovers the full mapping.
[[nodiscard]] std::uint64_t content_hash(std::string_view kind,
                                         std::string_view key,
                                         std::string_view payload) {
  std::uint64_t h = support::fnv1a64(kind);
  h = support::fnv1a64("\n", h);
  h = support::fnv1a64(key, h);
  h = support::fnv1a64("\n", h);
  return support::fnv1a64(payload, h);
}

/// Object file = framing header (self-CRC'd) + raw payload bytes.
[[nodiscard]] std::string encode_object(const store_entry& entry,
                                        std::string_view payload) {
  std::string header;
  header += kObjectMagic;
  header += "\nkind ";
  header += entry.kind;
  header += "\nkey ";
  header += entry.key;
  header += "\nsize ";
  header += std::to_string(entry.size);
  header += "\npayload-crc ";
  header += support::hex8(entry.payload_crc);
  header += '\n';
  std::string out = header;
  out += "crc ";
  out += support::hex8(support::crc32(header));
  out += '\n';
  out.append(payload.data(), payload.size());
  return out;
}

struct decoded_object {
  store_entry entry;
  std::string payload;
};

/// Strict parse + verify of one object file's bytes.  nullopt on any framing
/// damage, CRC mismatch, or size disagreement — the callers (get/scrub/
/// rebuild) treat that uniformly as "corrupt object".
[[nodiscard]] std::optional<decoded_object> decode_object(
    std::string_view bytes) {
  // Header = first five lines; the CRC line follows; payload is the rest.
  std::size_t pos = 0;
  for (int line = 0; line < 5; ++line) {
    const std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string_view::npos) return std::nullopt;
    pos = nl + 1;
  }
  const std::string_view header = bytes.substr(0, pos);
  const std::size_t crc_nl = bytes.find('\n', pos);
  if (crc_nl == std::string_view::npos) return std::nullopt;
  const std::string_view crc_line = bytes.substr(pos, crc_nl - pos);
  if (crc_line.substr(0, 4) != "crc ") return std::nullopt;
  const auto stored_crc = support::parse_hex(crc_line.substr(4));
  if (!stored_crc || *stored_crc != support::crc32(header)) {
    return std::nullopt;
  }

  // Header verified; parse its fields (line-by-line, fixed order).
  std::istringstream is{std::string(header)};
  std::string line;
  if (!std::getline(is, line) || line != kObjectMagic) return std::nullopt;
  decoded_object obj;
  if (!std::getline(is, line) || line.rfind("kind ", 0) != 0) {
    return std::nullopt;
  }
  obj.entry.kind = line.substr(5);
  if (!std::getline(is, line) || line.rfind("key ", 0) != 0) {
    return std::nullopt;
  }
  obj.entry.key = line.substr(4);
  if (!is_token(obj.entry.kind) || !is_token(obj.entry.key)) {
    return std::nullopt;
  }
  if (!std::getline(is, line) || line.rfind("size ", 0) != 0) {
    return std::nullopt;
  }
  try {
    obj.entry.size = std::stoull(line.substr(5));
  } catch (...) {
    return std::nullopt;
  }
  if (!std::getline(is, line) || line.rfind("payload-crc ", 0) != 0) {
    return std::nullopt;
  }
  const auto pcrc = support::parse_hex(line.substr(12));
  if (!pcrc) return std::nullopt;
  obj.entry.payload_crc = static_cast<std::uint32_t>(*pcrc);

  const std::string_view payload = bytes.substr(crc_nl + 1);
  if (payload.size() != obj.entry.size) return std::nullopt;
  if (support::crc32(payload) != obj.entry.payload_crc) return std::nullopt;
  obj.entry.hash = content_hash(obj.entry.kind, obj.entry.key, payload);
  obj.payload.assign(payload.data(), payload.size());
  return obj;
}

[[nodiscard]] std::optional<std::string> read_file_bytes(
    const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::ostringstream os;
  os << is.rdbuf();
  if (!is) return std::nullopt;
  return std::move(os).str();
}

/// The body of one index journal record (support/journal.h frames it):
/// `put <kind> <key> <hash16> <size> <payloadcrc8>`.
[[nodiscard]] std::string index_record(const store_entry& entry) {
  std::string body = "put ";
  body += entry.kind;
  body += ' ';
  body += entry.key;
  body += ' ';
  body += support::hex16(entry.hash);
  body += ' ';
  body += std::to_string(entry.size);
  body += ' ';
  body += support::hex8(entry.payload_crc);
  return body;
}

[[nodiscard]] std::optional<store_entry> decode_index_record(
    std::string_view body) {
  // Six space-separated fields, split in place with memchr: this runs once
  // per record on open(), and token_reader's per-character scan made
  // bm_store_open ~20% slower.
  std::string_view fields[6];
  std::string_view rest = body;
  for (std::string_view& field : fields) {
    const std::size_t sp = rest.find(' ');
    field = rest.substr(0, sp);
    if (field.empty()) return std::nullopt;
    rest = sp == std::string_view::npos ? std::string_view{}
                                        : rest.substr(sp + 1);
  }
  if (fields[0] != "put" || !rest.empty()) return std::nullopt;
  const auto hash = support::parse_hex(fields[3]);
  const auto pcrc = support::parse_hex(fields[5]);
  std::uint64_t size = 0;
  const auto [end, ec] = std::from_chars(
      fields[4].data(), fields[4].data() + fields[4].size(), size);
  if (!hash || !pcrc || ec != std::errc{} ||
      end != fields[4].data() + fields[4].size()) {
    return std::nullopt;
  }
  store_entry e;
  e.kind = std::string(fields[1]);
  e.key = std::string(fields[2]);
  e.hash = *hash;
  e.size = size;
  e.payload_crc = static_cast<std::uint32_t>(*pcrc);
  return e;
}

[[nodiscard]] std::string slot_key(std::string_view kind,
                                   std::string_view key) {
  std::string slot;
  slot.reserve(kind.size() + 1 + key.size());
  slot += kind;
  slot += ' ';  // kinds and keys are whitespace-free tokens
  slot += key;
  return slot;
}

void sort_entries(std::vector<store_entry>& index) {
  std::sort(index.begin(), index.end(),
            [](const store_entry& a, const store_entry& b) {
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.key < b.key;
            });
}

}  // namespace

std::string result_store::format_key(std::uint64_t fingerprint) {
  return support::hex16(fingerprint);
}

std::string result_store::object_path(std::uint64_t hash) const {
  const std::string name = support::hex16(hash);
  return root_ + "/objects/" + name.substr(0, 2) + "/" + name + ".obj";
}

std::optional<result_store> result_store::open(std::string root,
                                               store_open_report* report) {
  store_open_report local;
  std::error_code ec;
  fs::create_directories(fs::path(root) / "objects", ec);
  if (ec) return std::nullopt;
  fs::create_directories(fs::path(root) / "quarantine", ec);
  if (ec) return std::nullopt;

  result_store store(std::move(root));
  if (store.load(local) && !store.rewrite_index()) return std::nullopt;
  local.entries = store.index_.size();
  if (report) *report = local;
  return store;
}

bool result_store::load(store_open_report& report) {
  index_.clear();
  slots_.clear();
  index_fd_ = support::open_read(index_path());
  index_offset_ = 0;
  index_last_line_.clear();

  std::string bytes;
  const bool readable =
      index_fd_.valid() && support::read_to_end(index_fd_.get(), 0, bytes);
  bool damaged = false;
  if (const auto replayed = support::journal::replay(
          bytes, kIndexMagic,
          [&](std::string_view body) { damaged |= !apply_record(body); })) {
    track(bytes, 0, *replayed);
    // A torn tail is damage to open() (which rewrites it away) but only
    // an append in progress to refresh(), which re-reads it next time.
    report.index_salvaged =
        damaged || replayed->damaged || replayed->end < bytes.size();
    return report.index_salvaged;
  }
  // Missing or header-damaged: nothing to track, so every refresh() redoes
  // this scan until open() rewrites the index.
  index_fd_.reset();

  // The objects are the truth; reconstruct the mapping from them.  With a
  // lost journal the per-(kind, key) ordering of superseded objects is
  // gone, so the rebuild is only guaranteed faithful when each mapping has
  // a single live object — which gc() maintains and the coordinator's
  // content-addressed idempotent publishes never violate.  Sorting by
  // (kind, key, hash) makes the rebuilt index deterministic regardless of
  // directory iteration order.
  std::vector<store_entry> found;
  scan_objects(found);
  // A brand-new store (no index, no objects) is just initialized, not
  // "rebuilt" — only report recovery when there was something to recover.
  report.index_rebuilt = readable || !found.empty();
  std::sort(found.begin(), found.end(),
            [](const store_entry& a, const store_entry& b) {
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.key != b.key) return a.key < b.key;
              return a.hash < b.hash;
            });
  for (auto& e : found) upsert(std::move(e));
  return true;
}

bool result_store::apply_record(std::string_view body) {
  auto entry = decode_index_record(body);
  if (entry) upsert(*std::move(entry));
  return entry.has_value();
}

void result_store::track(std::string_view bytes, std::uint64_t base,
                         const support::journal::scan_result& scan) {
  if (scan.last_line == std::string_view::npos) return;  // nothing new
  index_last_line_ = bytes.substr(scan.last_line, scan.end - scan.last_line);
  index_offset_ = base + scan.end;
}

void result_store::refresh() {
#if defined(__unix__) || defined(__APPLE__)
  struct ::stat on_disk {};
  struct ::stat held {};
  if (index_fd_.valid() && ::stat(index_path().c_str(), &on_disk) == 0 &&
      ::fstat(index_fd_.get(), &held) == 0 &&
      on_disk.st_ino == held.st_ino && on_disk.st_dev == held.st_dev &&
      static_cast<std::uint64_t>(held.st_size) >= index_offset_) {
    // Same file, not shrunk.  Re-read from the start of the last consumed
    // line: if those bytes still match, everything after them is new.
    const std::uint64_t from = index_offset_ - index_last_line_.size();
    std::string bytes;
    if (support::read_to_end(index_fd_.get(), from, bytes) &&
        bytes.starts_with(index_last_line_)) {
      track(bytes, from,
            support::journal::scan(
                bytes, index_last_line_.size(),
                [this](std::string_view body) { (void)apply_record(body); }));
      return;
    }
  }
#endif
  // Replaced (gc/scrub/salvage rename), shrunk, rewritten in place, or
  // never tracked: start over from whatever the index is now.
  store_open_report ignored;
  (void)load(ignored);
}

void result_store::scan_objects(std::vector<store_entry>& found) const {
  std::error_code ec;
  fs::recursive_directory_iterator it(fs::path(root_) / "objects", ec);
  if (ec) return;
  for (const auto& de : it) {
    if (!de.is_regular_file(ec) || de.path().extension() != ".obj") continue;
    const auto bytes = read_file_bytes(de.path().string());
    if (!bytes) continue;
    const auto obj = decode_object(*bytes);
    if (!obj) continue;  // corrupt: invisible to rebuild, scrub handles it
    // Trust only objects stored under their true content address; a
    // renamed/copied stray must not hijack a mapping during rebuild.
    if (de.path().filename().string() !=
        support::hex16(obj->entry.hash) + ".obj") {
      continue;
    }
    found.push_back(obj->entry);
  }
}

bool result_store::rewrite_index() {
  std::string text = support::journal::encode(kIndexMagic);
  std::vector<store_entry> sorted = index_;
  sort_entries(sorted);
  for (const auto& e : sorted) {
    text += support::journal::encode(index_record(e));
  }
  // The tracked file is being replaced; the next refresh() reloads.
  index_fd_.reset();
  return support::write_file_durable(index_path(), text);
}

void result_store::upsert(store_entry entry) {
  const auto [slot, inserted] =
      slots_.try_emplace(slot_key(entry.kind, entry.key), index_.size());
  if (inserted) {
    index_.push_back(std::move(entry));
  } else {
    index_[slot->second] = std::move(entry);
  }
}

const store_entry* result_store::find(std::string_view kind,
                                      std::string_view key) const {
  const auto slot = slots_.find(slot_key(kind, key));
  return slot == slots_.end() ? nullptr : &index_[slot->second];
}

void result_store::reindex() {
  slots_.clear();
  for (std::size_t i = 0; i < index_.size(); ++i) {
    slots_.emplace(slot_key(index_[i].kind, index_[i].key), i);
  }
}

bool result_store::append_index_record(const store_entry& entry) {
  if (fault::fire(kFaultIndexAppendFail)) return false;
  return support::journal::append(index_path(), index_record(entry));
}

std::optional<std::uint64_t> result_store::put(std::string_view kind,
                                               std::string_view key,
                                               std::string_view payload) {
  if (!is_token(kind) || !is_token(key)) return std::nullopt;
  store_entry entry;
  entry.kind = std::string(kind);
  entry.key = std::string(key);
  entry.size = payload.size();
  entry.payload_crc = support::crc32(payload);
  entry.hash = content_hash(kind, key, payload);

  const std::string path = object_path(entry.hash);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec) return std::nullopt;
  // Identical content -> identical object file; skip the rewrite but still
  // append the index record (the previous append may be what crashed).
  bool have_object = false;
  if (const auto existing = read_file_bytes(path)) {
    const auto obj = decode_object(*existing);
    have_object = obj && obj->entry.hash == entry.hash;
  }
  // A gc in another process working from a stale index (one that predates
  // this entry) can delete the object at any instant up to the index
  // append making it referenced — including right after the probe above.
  if (fault::fire(kFaultPutRacingGc)) {
    std::error_code race_ec;
    fs::remove(path, race_ec);
  }
  if (!have_object &&
      !support::write_file_durable(
          path, encode_object(entry, payload),
          {kFaultPutFail, kFaultPutTruncate, kFaultPutDirsync})) {
    return std::nullopt;
  }
  // The window the coordinator-recovery suite replays: the object is
  // durable but its index record is not.  _Exit models SIGKILL — no
  // unwinding, no flushes.  Recovery: either the journal replay never sees
  // the record (rebuild/scan finds the object) or the re-run's idempotent
  // put lands the append.
  if (fault::fire(kFaultCrashMidAppend)) std::_Exit(44);
  if (!append_index_record(entry)) return std::nullopt;
  // Close the gc race: the record is durable, so the object is referenced
  // from here on — but a concurrent gc replaying a stale index may have
  // deleted the file between the probe above and this append.  Re-probe
  // and rewrite; an idempotent put must leave the object present.
  std::error_code exists_ec;
  if (!fs::exists(path, exists_ec) &&
      !support::write_file_durable(path, encode_object(entry, payload))) {
    return std::nullopt;
  }
  const std::uint64_t hash = entry.hash;
  upsert(std::move(entry));
  return hash;
}

bool result_store::contains(std::string_view kind,
                            std::string_view key) const {
  return find(kind, key) != nullptr;
}

std::optional<std::string> result_store::get(std::string_view kind,
                                             std::string_view key) const {
  const store_entry* entry = find(kind, key);
  if (!entry) return std::nullopt;
  const std::string path = object_path(entry->hash);
  const auto bytes = read_file_bytes(path);
  if (!bytes) {
    std::cerr << "axc-store: missing object " << path << " for (" << kind
              << ", " << key << ")\n";
    return std::nullopt;
  }
  const auto obj = decode_object(*bytes);
  if (!obj || obj->entry.hash != entry->hash) {
    std::cerr << "axc-store: corrupt object " << path << " for (" << kind
              << ", " << key << ") — run scrub to quarantine\n";
    return std::nullopt;
  }
  return obj->payload;
}

std::vector<store_entry> result_store::entries(std::string_view kind) const {
  std::vector<store_entry> sorted;
  if (kind.empty()) {
    sorted = index_;
  } else {
    for (const store_entry& entry : index_) {
      if (entry.kind == kind) sorted.push_back(entry);
    }
  }
  sort_entries(sorted);
  return sorted;
}

store_scrub_report result_store::scrub() {
  store_scrub_report report;
  std::unordered_set<std::uint64_t> bad_hashes;

  std::error_code ec;
  std::vector<fs::path> object_files;
  fs::recursive_directory_iterator it(fs::path(root_) / "objects", ec);
  if (!ec) {
    for (const auto& de : it) {
      if (de.is_regular_file(ec) && de.path().extension() == ".obj") {
        object_files.push_back(de.path());
      }
    }
  }
  std::sort(object_files.begin(), object_files.end());

  for (const auto& path : object_files) {
    ++report.objects_checked;
    const auto bytes = read_file_bytes(path.string());
    std::optional<decoded_object> obj;
    if (bytes) obj = decode_object(*bytes);
    const bool name_ok =
        obj &&
        path.filename().string() == support::hex16(obj->entry.hash) + ".obj";
    if (obj && name_ok) continue;
    // Quarantine: rename aside, never delete — keep the evidence, stop
    // serving it.  A name collision in quarantine gets a numeric suffix so
    // repeated scrubs of repeated corruption never clobber prior evidence.
    fs::path dest = fs::path(root_) / "quarantine" / path.filename();
    for (int n = 1; fs::exists(dest, ec); ++n) {
      dest = fs::path(root_) / "quarantine" /
             (path.filename().string() + "." + std::to_string(n));
    }
    fs::rename(path, dest, ec);
    if (!ec) ++report.quarantined;
    if (const auto hash = support::parse_hex(path.stem().string())) {
      bad_hashes.insert(*hash);
    }
  }

  // Drop index entries whose object was quarantined or is simply gone.
  const std::size_t before = index_.size();
  std::erase_if(index_, [&](const store_entry& e) {
    if (bad_hashes.contains(e.hash)) return true;
    std::error_code exists_ec;
    return !fs::exists(object_path(e.hash), exists_ec);
  });
  report.entries_dropped = before - index_.size();
  if (report.entries_dropped > 0) reindex();

  if ((report.quarantined > 0 || report.entries_dropped > 0) &&
      !rewrite_index()) {
    std::cerr << "axc-store: scrub could not rewrite index under " << root_
              << '\n';
  }
  return report;
}

store_gc_report result_store::gc() {
  store_gc_report report;
  std::error_code ec;
  std::vector<fs::path> object_files;
  fs::recursive_directory_iterator it(fs::path(root_) / "objects", ec);
  if (!ec) {
    for (const auto& de : it) {
      if (de.is_regular_file(ec) && de.path().extension() == ".obj") {
        object_files.push_back(de.path());
      }
    }
  }
  std::sort(object_files.begin(), object_files.end());
  std::unordered_set<std::uint64_t> live_hashes;
  for (const store_entry& e : index_) live_hashes.insert(e.hash);
  for (const auto& path : object_files) {
    const auto hash = support::parse_hex(path.stem().string());
    if (hash && live_hashes.contains(*hash)) continue;
    const auto size = fs::file_size(path, ec);
    if (!fs::remove(path, ec) || ec) continue;
    ++report.objects_removed;
    if (size != static_cast<std::uintmax_t>(-1)) {
      report.bytes_reclaimed += size;
    }
  }
  if (report.objects_removed > 0 && !rewrite_index()) {
    std::cerr << "axc-store: gc could not rewrite index under " << root_
              << '\n';
  }
  return report;
}

std::string serialize_front(std::span<const pareto_point> front) {
  std::string out(kFrontMagic);
  out += "\npoints ";
  out += std::to_string(front.size());
  out += '\n';
  char buf[96];
  for (const pareto_point& p : front) {
    // %.17g round-trips every double bit-exactly through strtod — the same
    // guarantee the checkpoint format leans on.
    std::snprintf(buf, sizeof(buf), "%.17g %.17g %zu\n", p.x, p.y, p.index);
    out += buf;
  }
  out += "end\n";
  return out;
}

std::optional<std::vector<pareto_point>> parse_front(std::string_view text) {
  std::istringstream is{std::string(text)};
  std::string magic_a, magic_b, tag;
  if (!(is >> magic_a >> magic_b) ||
      magic_a + " " + magic_b != kFrontMagic) {
    return std::nullopt;
  }
  std::size_t count = 0;
  if (!(is >> tag >> count) || tag != "points") return std::nullopt;
  std::vector<pareto_point> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pareto_point p;
    if (!(is >> p.x >> p.y >> p.index)) return std::nullopt;
    points.push_back(p);
  }
  if (!(is >> tag) || tag != "end") return std::nullopt;
  return points;
}

std::string serialize_table(unsigned width,
                            std::span<const std::int64_t> values) {
  std::string out(kTableMagic);
  out += "\nwidth ";
  out += std::to_string(width);
  out += "\nentries ";
  out += std::to_string(values.size());
  out += '\n';
  // 16 values per line keeps a w=8 table (65536 entries) around a few
  // hundred KB of grep-able text without degenerate line lengths.
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += std::to_string(values[i]);
    out += (i + 1 == values.size() || (i + 1) % 16 == 0) ? '\n' : ' ';
  }
  out += "end\n";
  return out;
}

std::optional<table_payload> parse_table(std::string_view text) {
  std::istringstream is{std::string(text)};
  std::string magic_a, magic_b, tag;
  if (!(is >> magic_a >> magic_b) ||
      magic_a + " " + magic_b != kTableMagic) {
    return std::nullopt;
  }
  table_payload table;
  if (!(is >> tag >> table.width) || tag != "width") return std::nullopt;
  std::size_t count = 0;
  if (!(is >> tag >> count) || tag != "entries" || count > (1u << 26)) {
    return std::nullopt;
  }
  table.values.resize(count);
  for (std::int64_t& value : table.values) {
    if (!(is >> value)) return std::nullopt;
  }
  if (!(is >> tag) || tag != "end") return std::nullopt;
  return table;
}

}  // namespace axc::core
