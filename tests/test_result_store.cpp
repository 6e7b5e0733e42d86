// Result-store robustness: the PR's acceptance property (b) — after
// injected object corruption, scrub() quarantines exactly the damaged
// entries and every remaining lookup returns its exact pre-corruption
// bytes — plus the degraded-open paths (index deleted, index records
// damaged), put idempotence, gc of superseded objects, the injected
// transient put failure, the mid-index-append crash window (a gtest
// death test around the store's _Exit(44) fault point), a put after a
// torn index tail surviving reopen and gc, and refresh():
// a long-lived reader following another instance's puts, gcs, scrubs and
// torn appends must always see what a fresh open() sees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/result_store.h"
#include "support/fault.h"
#include "support/rng.h"

namespace axc::core {
namespace {

namespace fs = std::filesystem;
using namespace std::string_literals;

std::string fresh_store_dir(const char* name) {
  const std::string dir =
      (fs::temp_directory_path() /
       (std::string("axc-store-test-") + name + "-" +
        std::to_string(::getpid())))
          .string();
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

std::string read_bytes(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return std::move(os).str();
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<fs::path> object_files(const std::string& root) {
  std::vector<fs::path> files;
  std::error_code ec;
  fs::recursive_directory_iterator it(fs::path(root) / "objects", ec);
  if (ec) return files;
  for (const auto& de : it) {
    if (de.is_regular_file(ec) && de.path().extension() == ".obj") {
      files.push_back(de.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Flips one byte of the object file serving (kind, key).
void corrupt_object(result_store& store, const std::string& kind,
                    const std::string& key, std::size_t at) {
  for (const auto& entry : store.entries()) {
    if (entry.kind != kind || entry.key != key) continue;
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(entry.hash));
    const fs::path path = fs::path(store.root()) / "objects" /
                          std::string(buf).substr(0, 2) /
                          (std::string(buf) + ".obj");
    std::string bytes = read_bytes(path);
    ASSERT_LT(at, bytes.size());
    bytes[at] ^= 0x5A;
    write_bytes(path, bytes);
    return;
  }
  FAIL() << "no entry for (" << kind << ", " << key << ")";
}

TEST(result_store, put_get_round_trip_and_listing) {
  const std::string dir = fresh_store_dir("roundtrip");
  store_open_report report;
  auto store = result_store::open(dir, &report);
  ASSERT_TRUE(store.has_value());
  EXPECT_FALSE(report.index_rebuilt);  // a fresh store is not a recovery
  EXPECT_FALSE(report.index_salvaged);

  const std::string payload = "binary\0bytes\nwith newlines\n"s;
  const auto hash = store->put("session", result_store::format_key(7), payload);
  ASSERT_TRUE(hash.has_value());
  EXPECT_TRUE(store->contains("session", "0000000000000007"));
  const auto got = store->get("session", "0000000000000007");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_FALSE(store->get("session", "0000000000000008").has_value());
  EXPECT_FALSE(store->get("front", "0000000000000007").has_value());

  // Tokens only: whitespace in kind/key would corrupt the index grammar.
  EXPECT_FALSE(store->put("bad kind", "k", "x").has_value());
  EXPECT_FALSE(store->put("kind", "bad key", "x").has_value());
  EXPECT_FALSE(store->put("", "k", "x").has_value());

  ASSERT_EQ(store->entries().size(), 1u);
  EXPECT_EQ(store->entries()[0].kind, "session");
  EXPECT_EQ(store->entries()[0].size, payload.size());

  // A fresh open of the same root serves the same bytes.
  auto reopened = result_store::open(dir, &report);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_FALSE(report.index_rebuilt);
  EXPECT_EQ(reopened->get("session", "0000000000000007"), payload);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(result_store, put_is_idempotent_and_content_addressed) {
  const std::string dir = fresh_store_dir("idempotent");
  auto store = result_store::open(dir);
  ASSERT_TRUE(store.has_value());
  const auto first = store->put("front", "aa", "same bytes");
  const auto second = store->put("front", "aa", "same bytes");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(object_files(dir).size(), 1u);
  // Same payload under a different key is a *different* object: the
  // address covers (kind, key, payload), so an index rebuild from the
  // object files alone recovers the full mapping.
  const auto other = store->put("front", "bb", "same bytes");
  ASSERT_TRUE(other.has_value());
  EXPECT_NE(*first, *other);
  EXPECT_EQ(object_files(dir).size(), 2u);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// The put/gc race: a gc in another process replaying a stale index can
// delete an object between an idempotent re-put's existence probe and its
// index append (the store-put-racing-gc fault point models exactly that
// window).  The re-put must notice and land the object again — an
// idempotent put always leaves its object present and referenced.
TEST(result_store, put_survives_a_racing_gc_deleting_its_object) {
  const std::string dir = fresh_store_dir("racing-gc");
  auto store = result_store::open(dir);
  ASSERT_TRUE(store.has_value());
  const auto first = store->put("front", "aa", "raced bytes");
  ASSERT_TRUE(first.has_value());

  fault::configure("store-put-racing-gc@1");
  const auto second = store->put("front", "aa", "raced bytes");
  fault::clear();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);
  ASSERT_EQ(object_files(dir).size(), 1u);
  EXPECT_EQ(store->get("front", "aa"), std::optional("raced bytes"s));

  // The object is referenced, so this store's own gc keeps it, and a fresh
  // open (rebuilding from disk) still serves the exact bytes.
  EXPECT_EQ(store->gc().objects_removed, 0u);
  auto reopened = result_store::open(dir);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->get("front", "aa"), std::optional("raced bytes"s));

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// Acceptance property (b): corrupt some objects, scrub, and every
// surviving lookup still returns its exact pre-corruption bytes while the
// damaged ones are quarantined — renamed aside, never deleted.
TEST(result_store, scrub_quarantines_corruption_and_healthy_set_survives) {
  const std::string dir = fresh_store_dir("scrub");
  auto store = result_store::open(dir);
  ASSERT_TRUE(store.has_value());

  std::map<std::string, std::string> expected;
  for (int i = 0; i < 5; ++i) {
    const std::string key = result_store::format_key(0x1000 + i);
    std::string payload = "checkpoint-" + std::to_string(i) + "\n";
    payload.append(200 + 37 * i, static_cast<char>('a' + i));
    ASSERT_TRUE(store->put("session", key, payload).has_value());
    expected[key] = std::move(payload);
  }
  // Damage two objects in different sections: one deep in the payload, one
  // in the framing header.
  corrupt_object(*store, "session", result_store::format_key(0x1001), 150);
  corrupt_object(*store, "session", result_store::format_key(0x1003), 5);

  // Damage is detected (never served) even before scrubbing.
  auto reopened = result_store::open(dir);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_FALSE(
      reopened->get("session", result_store::format_key(0x1001)).has_value());

  const store_scrub_report report = reopened->scrub();
  EXPECT_EQ(report.objects_checked, 5u);
  EXPECT_EQ(report.quarantined, 2u);
  EXPECT_EQ(report.entries_dropped, 2u);

  // Quarantine keeps the evidence; the object tree no longer serves it.
  std::size_t quarantined = 0;
  for (const auto& de : fs::directory_iterator(fs::path(dir) / "quarantine")) {
    quarantined += de.is_regular_file() ? 1 : 0;
  }
  EXPECT_EQ(quarantined, 2u);
  EXPECT_EQ(object_files(dir).size(), 3u);

  // Every remaining lookup returns its exact pre-corruption result — also
  // through a completely fresh open of the scrubbed store.
  auto fresh = result_store::open(dir);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->entries().size(), 3u);
  for (const int healthy : {0x1000, 0x1002, 0x1004}) {
    const std::string key = result_store::format_key(healthy);
    for (result_store* s : {&*reopened, &*fresh}) {
      const auto got = s->get("session", key);
      ASSERT_TRUE(got.has_value()) << key;
      EXPECT_EQ(*got, expected[key]) << key;
    }
  }
  for (const int damaged : {0x1001, 0x1003}) {
    const std::string key = result_store::format_key(damaged);
    EXPECT_FALSE(fresh->get("session", key).has_value()) << key;
    EXPECT_FALSE(fresh->contains("session", key)) << key;
  }
  // Scrubbing a healthy store is a no-op.
  const store_scrub_report again = fresh->scrub();
  EXPECT_EQ(again.quarantined, 0u);
  EXPECT_EQ(again.entries_dropped, 0u);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(result_store, open_rebuilds_a_deleted_index_from_objects) {
  const std::string dir = fresh_store_dir("rebuild");
  std::map<std::pair<std::string, std::string>, std::string> expected;
  {
    auto store = result_store::open(dir);
    ASSERT_TRUE(store.has_value());
    for (int i = 0; i < 4; ++i) {
      const std::string key = result_store::format_key(0x2000 + i);
      const std::string payload = "front-data-" + std::to_string(i * i);
      ASSERT_TRUE(store->put(i % 2 ? "front" : "session", key, payload)
                      .has_value());
      expected[{i % 2 ? "front" : "session", key}] = payload;
    }
  }
  fs::remove(fs::path(dir) / "index.axc");

  store_open_report report;
  auto store = result_store::open(dir, &report);
  ASSERT_TRUE(store.has_value());
  EXPECT_TRUE(report.index_rebuilt);
  EXPECT_EQ(report.entries, 4u);
  for (const auto& [id, payload] : expected) {
    const auto got = store->get(id.first, id.second);
    ASSERT_TRUE(got.has_value()) << id.first << " " << id.second;
    EXPECT_EQ(*got, payload);
  }

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(result_store, open_salvages_damaged_index_records) {
  const std::string dir = fresh_store_dir("salvage");
  {
    auto store = result_store::open(dir);
    ASSERT_TRUE(store.has_value());
    ASSERT_TRUE(store->put("session", "aaaa", "payload-a").has_value());
    ASSERT_TRUE(store->put("session", "bbbb", "payload-b").has_value());
    ASSERT_TRUE(store->put("session", "cccc", "payload-c").has_value());
  }
  // Flip a byte inside the middle record's line (past the header line).
  const fs::path index = fs::path(dir) / "index.axc";
  std::string bytes = read_bytes(index);
  const std::size_t header_end = bytes.find('\n');
  const std::size_t rec2 = bytes.find('\n', header_end + 1) + 4;
  ASSERT_LT(rec2, bytes.size());
  bytes[rec2] ^= 0x5A;
  write_bytes(index, bytes);

  store_open_report report;
  auto store = result_store::open(dir, &report);
  ASSERT_TRUE(store.has_value());
  EXPECT_TRUE(report.index_salvaged);
  EXPECT_FALSE(report.index_rebuilt);
  EXPECT_EQ(report.entries, 2u);
  EXPECT_EQ(store->get("session", "aaaa"), "payload-a");
  EXPECT_EQ(store->get("session", "cccc"), "payload-c");
  EXPECT_FALSE(store->contains("session", "bbbb"));
  // The dropped mapping's object is intact on disk, so re-putting it (what
  // an idempotent re-publish does) restores it without a new object.
  const std::size_t objects_before = object_files(dir).size();
  ASSERT_TRUE(store->put("session", "bbbb", "payload-b").has_value());
  EXPECT_EQ(object_files(dir).size(), objects_before);
  EXPECT_EQ(store->get("session", "bbbb"), "payload-b");

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(result_store, gc_removes_only_unreferenced_objects) {
  const std::string dir = fresh_store_dir("gc");
  auto store = result_store::open(dir);
  ASSERT_TRUE(store.has_value());
  ASSERT_TRUE(store->put("front", "kk", "version one").has_value());
  ASSERT_TRUE(store->put("front", "kk", "version two — supersedes").has_value());
  ASSERT_TRUE(store->put("session", "ll", "keep me").has_value());
  ASSERT_EQ(object_files(dir).size(), 3u);

  const store_gc_report report = store->gc();
  EXPECT_EQ(report.objects_removed, 1u);
  EXPECT_GT(report.bytes_reclaimed, 0u);
  EXPECT_EQ(object_files(dir).size(), 2u);
  EXPECT_EQ(store->get("front", "kk"), "version two — supersedes");
  EXPECT_EQ(store->get("session", "ll"), "keep me");

  // gc never touches quarantined evidence.
  write_bytes(fs::path(dir) / "quarantine" / "deadbeef.obj", "evidence");
  const store_gc_report second = store->gc();
  EXPECT_EQ(second.objects_removed, 0u);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "quarantine" / "deadbeef.obj"));

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(result_store, injected_put_failure_leaves_previous_mapping_intact) {
  const std::string dir = fresh_store_dir("putfail");
  auto store = result_store::open(dir);
  ASSERT_TRUE(store.has_value());
  ASSERT_TRUE(store->put("session", "kk", "good bytes").has_value());

  fault::configure("store-put-fail@1");
  EXPECT_FALSE(store->put("session", "kk", "would replace").has_value());
  fault::clear();
  EXPECT_EQ(store->get("session", "kk"), "good bytes");

  // Index-append failure after a successful object write also fails the
  // put without disturbing the served mapping; the orphan object is
  // reclaimable by gc.
  fault::configure("store-index-append-fail@1");
  EXPECT_FALSE(store->put("session", "kk", "still not served").has_value());
  fault::clear();
  EXPECT_EQ(store->get("session", "kk"), "good bytes");
  auto reopened = result_store::open(dir);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->get("session", "kk"), "good bytes");
  EXPECT_EQ(reopened->gc().objects_removed, 1u);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ---- refresh(): incremental catch-up with the on-disk index -------------

/// The reader's view must be exactly a fresh open()'s: same mappings to
/// the same objects.
void expect_same_entries(const result_store& reader,
                         const std::string& root, const char* when) {
  // refresh() never writes; open() may (salvage), so it goes second.
  const auto fresh = result_store::open(root);
  ASSERT_TRUE(fresh.has_value()) << when;
  const std::vector<store_entry> got = reader.entries();
  const std::vector<store_entry> want = fresh->entries();
  ASSERT_EQ(got.size(), want.size()) << when;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << when << ", entry " << i;
    EXPECT_EQ(got[i].key, want[i].key) << when << ", entry " << i;
    EXPECT_EQ(got[i].hash, want[i].hash) << when << ", entry " << i;
    EXPECT_EQ(got[i].size, want[i].size) << when << ", entry " << i;
    EXPECT_EQ(got[i].payload_crc, want[i].payload_crc)
        << when << ", entry " << i;
  }
}

/// The index record a put of (kind, key, payload) appends — taken from a
/// throwaway store, since records name objects by content, not by root.
std::string index_record(const std::string& kind, const std::string& key,
                         const std::string& payload) {
  const std::string dir = fresh_store_dir("record");
  auto throwaway = result_store::open(dir);
  EXPECT_TRUE(throwaway->put(kind, key, payload).has_value());
  const std::string index = read_bytes(fs::path(dir) / "index.axc");
  std::error_code ec;
  fs::remove_all(dir, ec);
  const std::size_t start = index.rfind('\n', index.size() - 2) + 1;
  return index.substr(start);
}

void append_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::app);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(result_store, refresh_matches_a_fresh_open_under_random_interleavings) {
  const std::string dir = fresh_store_dir("refresh-prop");
  auto writer = result_store::open(dir);
  auto reader = result_store::open(dir);
  ASSERT_TRUE(writer.has_value());
  ASSERT_TRUE(reader.has_value());
  const std::string kinds[] = {"front", "session", "table"};
  rng gen(20260917);
  std::size_t torn = 0;
  std::size_t scrubbed = 0;
  std::size_t collected = 0;
  for (int step = 0; step < 160; ++step) {
    const std::string kind = kinds[gen.below(3)];
    // A small key space, so most puts overwrite a live mapping.
    const std::string key = "k" + std::to_string(gen.below(6));
    const std::string payload = "payload " + std::to_string(gen.below(1000));
    const std::uint64_t op = gen.below(100);
    if (op < 45) {
      ASSERT_TRUE(writer->put(kind, key, payload).has_value());
    } else if (op < 60) {
      // The reader's own puts land in the journal it is following.
      ASSERT_TRUE(reader->put(kind, key, payload).has_value());
    } else if (op < 70) {
      collected += writer->gc().objects_removed;
    } else if (op < 80) {
      // Rot one live object, then scrub: quarantine + index rewrite.
      const auto live = writer->entries();
      if (!live.empty()) {
        const store_entry& victim = live[gen.below(live.size())];
        corrupt_object(*writer, victim.kind, victim.key, 2);
      }
      scrubbed += writer->scrub().entries_dropped;
    } else if (op < 90) {
      // A publisher killed mid-append: half a record, no newline.
      const std::string record = index_record(kind, key, payload);
      append_bytes(fs::path(dir) / "index.axc",
                   record.substr(0, 1 + gen.below(record.size() - 1)));
      ++torn;
    } else {
      // A new writer process (its open() salvages any torn tail).
      writer = result_store::open(dir);
      ASSERT_TRUE(writer.has_value());
    }
    reader->refresh();
    expect_same_entries(*reader, dir, ("step " + std::to_string(step)).c_str());
    if (HasFailure()) break;
  }
  // The interleaving really exercised the rewrite and torn paths.
  EXPECT_GT(torn, 0u);
  EXPECT_GT(scrubbed, 0u);
  EXPECT_GT(collected, 0u);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(result_store, put_after_a_torn_tail_survives_reopen_and_gc) {
  // A power loss (or ENOSPC) mid-append leaves a newline-less fragment at
  // the end of the index.  The next put on a handle that never reopened
  // must not glue its record onto that fragment: the record would fail its
  // CRC on every later open, and gc would delete the object it names.
  const std::string dir = fresh_store_dir("torn-then-put");
  auto store = result_store::open(dir);
  ASSERT_TRUE(store.has_value());
  ASSERT_TRUE(store->put("front", "aaaa", "payload-a").has_value());
  append_bytes(fs::path(dir) / "index.axc", "put front ccc");
  ASSERT_TRUE(store->put("front", "bbbb", "payload-b").has_value());

  store_open_report report;
  auto reopened = result_store::open(dir, &report);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_TRUE(report.index_salvaged);  // the fragment is one damaged line
  EXPECT_EQ(report.entries, 2u);
  EXPECT_TRUE(reopened->contains("front", "bbbb"));
  EXPECT_EQ(reopened->gc().objects_removed, 0u);
  EXPECT_EQ(reopened->get("front", "aaaa"), "payload-a");
  EXPECT_EQ(reopened->get("front", "bbbb"), "payload-b");

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(result_store, refresh_leaves_a_torn_tail_until_its_newline_lands) {
  const std::string dir = fresh_store_dir("refresh-torn");
  auto writer = result_store::open(dir);
  auto reader = result_store::open(dir);
  ASSERT_TRUE(writer->put("front", "aaaa", "first").has_value());
  reader->refresh();
  ASSERT_TRUE(reader->contains("front", "aaaa"));

  const std::string record = index_record("front", "bbbb", "second");
  const fs::path index = fs::path(dir) / "index.axc";
  append_bytes(index, record.substr(0, record.size() / 2));
  reader->refresh();
  EXPECT_FALSE(reader->contains("front", "bbbb"));
  EXPECT_EQ(reader->entries().size(), 1u);
  // Still torn: another look changes nothing.
  reader->refresh();
  EXPECT_FALSE(reader->contains("front", "bbbb"));

  append_bytes(index, record.substr(record.size() / 2));
  reader->refresh();
  EXPECT_TRUE(reader->contains("front", "bbbb"));
  expect_same_entries(*reader, dir, "after the newline");

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(result_store, refresh_reloads_a_rewritten_index) {
  // The rewrite is built to fool an offset-only reader: after the
  // overwrite + gc, the compacted index has exactly the reader's consumed
  // length and ends with the same last record, yet maps "aaaa" to a new
  // object (the old one is deleted).  Only noticing the replaced file
  // saves the reader.
  const std::string dir = fresh_store_dir("refresh-rewrite");
  auto writer = result_store::open(dir);
  auto reader = result_store::open(dir);
  ASSERT_TRUE(writer->put("front", "aaaa", "payload-1").has_value());
  ASSERT_TRUE(writer->put("front", "bbbb", "payload-b").has_value());
  reader->refresh();
  ASSERT_EQ(reader->get("front", "aaaa"), "payload-1");
  const auto consumed = fs::file_size(fs::path(dir) / "index.axc");

  ASSERT_TRUE(writer->put("front", "aaaa", "payload-2").has_value());
  ASSERT_EQ(writer->gc().objects_removed, 1u);
  ASSERT_EQ(fs::file_size(fs::path(dir) / "index.axc"), consumed);

  reader->refresh();
  EXPECT_EQ(reader->get("front", "aaaa"), "payload-2");
  expect_same_entries(*reader, dir, "after gc");

  // Shrunk in place (not renamed): also a full reload.
  const fs::path index = fs::path(dir) / "index.axc";
  fs::resize_file(index, read_bytes(index).find('\n') + 1);
  reader->refresh();
  EXPECT_TRUE(reader->entries().empty());
  expect_same_entries(*reader, dir, "after truncation");

  // Truncated in place and regrown past the reader's offset before it
  // looks again: only the re-checked last record shows the bytes changed.
  ASSERT_TRUE(writer->put("front", "cccc", "payload-c").has_value());
  reader->refresh();
  fs::resize_file(index, read_bytes(index).find('\n') + 1);
  for (const char* key : {"dddd", "eeee", "ffff"}) {
    ASSERT_TRUE(writer->put("front", key, "payload-x").has_value());
  }
  reader->refresh();
  EXPECT_FALSE(reader->contains("front", "cccc"));
  expect_same_entries(*reader, dir, "after an in-place rewrite");

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(result_store, refresh_reapplies_the_readers_own_puts_idempotently) {
  const std::string dir = fresh_store_dir("refresh-own");
  auto writer = result_store::open(dir);
  auto reader = result_store::open(dir);
  ASSERT_TRUE(reader->put("front", "mine", "own bytes").has_value());
  ASSERT_TRUE(writer->put("front", "theirs", "their bytes").has_value());
  ASSERT_TRUE(reader->put("front", "mine", "own bytes v2").has_value());
  reader->refresh();
  reader->refresh();
  const auto entries = reader->entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(reader->get("front", "mine"), "own bytes v2");
  EXPECT_EQ(reader->get("front", "theirs"), "their bytes");
  expect_same_entries(*reader, dir, "after own puts");

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(result_store_death, crash_mid_index_append_recovers_by_reput) {
  // "fast" (plain fork) style: the child must inherit this process's `dir`
  // — a re-executing style would re-derive a different pid-stamped path
  // and strand the orphan object in the wrong store.
  testing::GTEST_FLAG(death_test_style) = "fast";
  const std::string dir = fresh_store_dir("midappend");
  {
    auto store = result_store::open(dir);
    ASSERT_TRUE(store.has_value());
    ASSERT_TRUE(store->put("session", "safe", "landed before").has_value());
  }
  // The child dies by _Exit(44) between the durable object write and its
  // index record — the exact window a SIGKILLed publisher leaves behind.
  EXPECT_EXIT(
      {
        fault::configure("store-crash-mid-index-append@1");
        auto store = result_store::open(dir);
        if (!store) std::_Exit(99);
        (void)store->put("front", "ffff", "torn publish");
        std::_Exit(98);  // unreachable: the fault point exits first
      },
      ::testing::ExitedWithCode(44), "");

  // Orphan object on disk, no index record: the mapping is absent but the
  // pre-crash entries still serve, and the idempotent re-put (what a
  // re-run coordinator does) completes the publish using the orphan.
  auto store = result_store::open(dir);
  ASSERT_TRUE(store.has_value());
  EXPECT_EQ(store->get("session", "safe"), "landed before");
  EXPECT_FALSE(store->contains("front", "ffff"));
  EXPECT_EQ(object_files(dir).size(), 2u);
  ASSERT_TRUE(store->put("front", "ffff", "torn publish").has_value());
  EXPECT_EQ(object_files(dir).size(), 2u);  // orphan reused, not rewritten
  EXPECT_EQ(store->get("front", "ffff"), "torn publish");

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(front_serialization, round_trips_bit_exactly) {
  std::vector<pareto_point> front = {
      {5e-324, 1.7976931348623157e308, 0},     // denormal min, double max
      {0.1, 1.0 / 3.0, 7},                     // classic non-representables
      {2.2250738585072014e-308, 6.3e-322, 42}, // normal min, denormal
      {1234.5678901234567, 0.0, 3},
  };
  const std::string text = serialize_front(front);
  const auto parsed = parse_front(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), front.size());
  for (std::size_t i = 0; i < front.size(); ++i) {
    EXPECT_EQ((*parsed)[i], front[i]) << "point " << i;
  }
  // Fixpoint: serializing the parse reproduces the exact bytes, so store
  // "front" objects compare bit-identically across coordinator lives.
  EXPECT_EQ(serialize_front(*parsed), text);

  EXPECT_TRUE(parse_front(serialize_front({})).has_value());
  EXPECT_FALSE(parse_front("axc-front v2\npoints 0\nend\n").has_value());
  EXPECT_FALSE(parse_front(text.substr(0, text.size() / 2)).has_value());
}

}  // namespace
}  // namespace axc::core
