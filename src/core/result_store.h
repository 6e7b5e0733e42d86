// Crash-safe, content-addressed on-disk store of finished search artifacts.
//
// The serving story ("spec + width + distribution + error budget -> ranked
// front", answered in microseconds) only works if a library of finished
// sessions, rerank caches and fronts survives everything PR 6 taught the
// sweep runtime to survive: torn writes, bit rot, and processes dying at
// arbitrary instants.  result_store is that durability contract:
//
//   * objects are immutable byte blobs named by their content hash
//     (support::fnv1a64 over kind + key + payload), stored under
//     `<root>/objects/<hh>/<16-hex>.obj`.  Identical content maps to the
//     identical object — re-publishing after a crash is a no-op, which is
//     what makes coordinator recovery idempotent;
//   * every object is written through the atomic durable path
//     (support::write_file_durable: tmp + fsync + rename + parent-dir
//     fsync) and framed with per-section CRC32s — a header CRC over the
//     framing lines and a payload CRC over the bytes — so damage is
//     *detected* at read time, never served;
//   * lookups go through an append-only index journal (`<root>/index.axc`)
//     mapping (kind, key) -> object, one CRC-line record per line with
//     the salvage and torn-tail rules of support/journal.h: damaged
//     records are dropped and scanning resyncs at the next line.  A
//     missing or header-damaged index degrades gracefully — open()
//     rebuilds it by scanning the object files themselves (the objects
//     are the truth; the index is a cache of it);
//   * a long-lived reader (the result server) follows other processes'
//     publishes with refresh(), which applies only the records appended
//     since its last look instead of re-reading the whole journal;
//   * scrub() verifies every object file's CRCs and *quarantines* corrupt
//     ones (renames them into `<root>/quarantine/`, never deletes — bit
//     rot is evidence worth keeping), dropping their index entries so
//     every remaining lookup keeps serving its exact stored bytes;
//   * gc() removes objects no live index entry references (superseded
//     puts, orphans from crashes between object write and index append).
//
// Keys are caller-chosen single tokens (no whitespace); the convention for
// search artifacts is format_key(fingerprint) — the PR 5 config
// fingerprint hex — folded with the seed and optionally a plan hash (see
// sweep_spec::table_key() / store_key()).  Kinds in use: "session"
// (finished search_session checkpoints), "front" (serialize_front text),
// "table" (serialize_table text), "rerank" (persisted rerank caches).
// The store itself is kind-agnostic.
//
// Fault injection points (support/fault.h): `store-put-fail` /
// `store-put-truncate` / `store-put-dirsync-fail` on the object write,
// `store-index-append-fail` on the journal append,
// `store-crash-mid-index-append` which _Exit(44)s between the object write
// and its index record — the deterministic stand-in for a coordinator
// SIGKILLed mid-publish, replayed by tests/test_result_store.cpp and the
// coordinator-recovery suite — and `store-put-racing-gc`, which deletes
// the object right after put()'s existence probe (a concurrent gc with a
// stale index winning the race; put re-probes after the index append and
// rewrites the object, so an idempotent put always leaves it referenced
// AND present).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/pareto.h"
#include "support/io.h"
#include "support/journal.h"

namespace axc::core {

/// One live index entry: the current object serving (kind, key).
struct store_entry {
  std::string kind;
  std::string key;
  std::uint64_t hash{0};  ///< content address (object file name)
  std::uint64_t size{0};  ///< payload bytes
  std::uint32_t payload_crc{0};
};

/// What open() had to do to produce a usable index.
struct store_open_report {
  bool index_rebuilt{false};   ///< missing/header-damaged index: object scan
  bool index_salvaged{false};  ///< damaged records dropped, rest kept
  std::size_t entries{0};      ///< live (kind, key) mappings after open
};

struct store_scrub_report {
  std::size_t objects_checked{0};
  std::size_t quarantined{0};       ///< corrupt objects renamed aside
  std::size_t entries_dropped{0};   ///< index entries that lost their object
};

struct store_gc_report {
  std::size_t objects_removed{0};
  std::uint64_t bytes_reclaimed{0};
};

class result_store {
 public:
  /// Opens (creating directories as needed) the store at `root`.  A
  /// corrupt or absent index is not an error — it is rebuilt from the
  /// object files (report describes what happened).  nullopt only when
  /// the directories cannot be created or the index cannot be written.
  [[nodiscard]] static std::optional<result_store> open(
      std::string root, store_open_report* report = nullptr);

  [[nodiscard]] const std::string& root() const { return root_; }

  /// Catches up with what other processes (and this one) published since
  /// open() or the last refresh(): applies the complete index records
  /// appended past the last consumed offset, skipping damaged ones the
  /// way open() does and leaving a torn tail for a later call.  Reloads
  /// the whole index when it was replaced (a gc, scrub or salvage
  /// rewrite), shrank, or changed under the last record consumed.  Never
  /// writes.  Cost: one stat + one pread of the new records, against
  /// open()'s full replay.
  void refresh();

  /// Stores `payload` under (kind, key), replacing any previous mapping
  /// (the superseded object stays on disk until gc()).  Both kind and key
  /// must be non-empty single tokens (no whitespace).  Durable on return;
  /// idempotent for identical content.  Returns the content hash, nullopt
  /// on I/O failure (the previous mapping, if any, is untouched).
  [[nodiscard]] std::optional<std::uint64_t> put(std::string_view kind,
                                                 std::string_view key,
                                                 std::string_view payload);

  /// The exact bytes last put under (kind, key); nullopt when unmapped or
  /// when the object fails its CRCs (damage is reported on stderr and
  /// never served — run scrub() to quarantine it).
  [[nodiscard]] std::optional<std::string> get(std::string_view kind,
                                               std::string_view key) const;

  [[nodiscard]] bool contains(std::string_view kind,
                              std::string_view key) const;

  /// Live mappings, sorted by (kind, key) — the `axc_store ls` surface.
  /// A non-empty `kind` filters to that kind only (`axc_store ls --kind`).
  [[nodiscard]] std::vector<store_entry> entries(
      std::string_view kind = {}) const;

  /// Verifies every object file (referenced or not) against its CRCs;
  /// corrupt or unparseable objects are renamed into
  /// `<root>/quarantine/` and their index entries dropped, so every
  /// surviving lookup still returns its exact stored bytes.  Also drops
  /// entries whose object file has gone missing.  Rewrites the index
  /// durably when anything changed.
  store_scrub_report scrub();

  /// Deletes object files no live index entry references and compacts the
  /// index to the live mappings.  Quarantined files are never touched.
  store_gc_report gc();

  /// Canonical key text for a 64-bit fingerprint: 16 lowercase hex digits.
  [[nodiscard]] static std::string format_key(std::uint64_t fingerprint);

 private:
  explicit result_store(std::string root) : root_(std::move(root)) {}

  [[nodiscard]] std::string index_path() const { return root_ + "/index.axc"; }
  [[nodiscard]] std::string object_path(std::uint64_t hash) const;
  [[nodiscard]] bool append_index_record(const store_entry& entry);
  [[nodiscard]] bool rewrite_index();
  void scan_objects(std::vector<store_entry>& found) const;
  /// Replaces the in-memory index with the on-disk one (journal replay, or
  /// an object scan when the index is missing or its header is damaged)
  /// and starts tracking the file read.  Never writes; true when open()
  /// must rewrite the index (rebuilt, salvaged or absent).
  bool load(store_open_report& report);
  /// Upserts one index record body; false when it is not a `put` record.
  bool apply_record(std::string_view body);
  /// Moves the refresh cursor past the last complete line of `scan`, a
  /// scan of `bytes` read from file offset `base` (a torn tail stays
  /// unread).
  void track(std::string_view bytes, std::uint64_t base,
             const support::journal::scan_result& scan);
  void upsert(store_entry entry);
  [[nodiscard]] const store_entry* find(std::string_view kind,
                                        std::string_view key) const;
  void reindex();

  std::string root_;
  /// Live mappings in no particular order (entries() and rewrites sort);
  /// slots_ maps "<kind> <key>" to its position, so open() is linear in
  /// the journal and lookups are O(1) at any store size.
  std::vector<store_entry> index_;
  std::unordered_map<std::string, std::size_t> slots_;
  /// How far refresh() has read the on-disk index: the file itself (held
  /// open, so its inode cannot be recycled for a replacement while we
  /// track it), the offset just past the last complete line consumed, and
  /// that line's bytes, re-checked before trusting the offset.
  support::unique_fd index_fd_;
  std::uint64_t index_offset_{0};
  std::string index_last_line_;
};

/// "axc-front v1" text serialization of a Pareto front (x/y as %.17g so
/// the round trip is bit-exact; one point per line, `end` terminator).
/// The store's "front" objects hold exactly these bytes, which is what
/// makes "published front bit-identical to an uninterrupted sweep" a
/// byte-comparison rather than a float-tolerance test.
[[nodiscard]] std::string serialize_front(
    std::span<const pareto_point> front);
[[nodiscard]] std::optional<std::vector<pareto_point>> parse_front(
    std::string_view text);

/// "axc-table v1" text serialization of a compiled behavioural table (the
/// store's "table" kind, keyed by sweep_spec::table_key()): decoded results
/// for every operand-pattern pair, entry[(b << w) | a], exact integers so
/// the round trip is trivially bit-exact.  Parsing is strict: a count
/// mismatch, non-integer token or missing terminator returns nullopt.
struct table_payload {
  unsigned width{0};
  std::vector<std::int64_t> values{};
};
[[nodiscard]] std::string serialize_table(
    unsigned width, std::span<const std::int64_t> values);
[[nodiscard]] std::optional<table_payload> parse_table(
    std::string_view text);

}  // namespace axc::core
