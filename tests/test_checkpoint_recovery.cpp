// Crash-safety matrix for the v3 campaign checkpoint format
// (analysis/campaign_service): every corruption a torn write or bit
// rot can produce — truncated tail, flipped byte mid-record, foreign
// or old version header (a v2 file included), empty file, and a
// fail-point-injected partial final flush — must either salvage the
// longest CRC-valid record prefix or start fresh, for PRT and March
// workloads alike, with the resumed result bit-identical to an
// uninterrupted run.  A record whose CRC verifies but whose tally
// cannot belong to its batch (an escape outside the batch, a wrong
// fault total, an unknown fault class) is salvaged the same way.
// Only a fingerprint mismatch (a *different* campaign, not a damaged
// one) may fail the request; no corruption may ever merge torn
// results.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/campaign_engine.hpp"
#include "analysis/campaign_service.hpp"
#include "analysis/march_campaign.hpp"
#include "core/prt_engine.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"
#include "util/crc32.hpp"
#include "util/fail_point.hpp"

namespace prt::analysis {
namespace {

using util::FailPoint;
using util::FailPointScope;

constexpr mem::Addr kN = 24;
/// Shards (fixed 2048-fault batches) of the tiled universe below.
constexpr std::size_t kShards = 6;
/// Shard attempts allowed to complete before the injected crash — the
/// interrupted checkpoint holds exactly this many records (threads=1
/// runs shards in order; the final flush persists all of them).
constexpr std::size_t kDoneShards = 4;

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.overall, b.overall);
  EXPECT_EQ(a.by_class, b.by_class);
  EXPECT_EQ(a.escapes, b.escapes);
  EXPECT_EQ(a.ops, b.ops);
}

std::string temp_checkpoint(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

CampaignRequest make_request(bool march) {
  CampaignRequest req;
  if (march) {
    req.march_test = march::march_c_minus();
  } else {
    req.scheme = core::extended_scheme_bom(kN);
  }
  req.options = {.n = kN};
  // The n = 24 classical universe tiled to kShards shards.
  const std::vector<mem::Fault> base = mem::classical_universe(kN);
  for (std::size_t i = 0; i < (kShards - 1) * 2048 + 100; ++i) {
    req.universe.push_back(base[i % base.size()]);
  }
  req.checkpoint_every = 1;
  return req;
}

CampaignResult reference_result(bool march) {
  const CampaignRequest req = make_request(march);
  return march ? run_march_campaign(req.universe, *req.march_test, req.options)
               : run_prt_campaign(req.universe, *req.scheme, req.options);
}

/// Runs a checkpointed campaign that crashes after kDoneShards shard
/// tasks, leaving a well-formed checkpoint with kDoneShards records.
void write_interrupted_checkpoint(bool march, const std::string& path) {
  FailPointScope scope;
  FailPoint::arm("campaign_service.shard",
                 {.skip = static_cast<int>(kDoneShards), .fires = -1});
  CampaignService service({.threads = 1, .max_retries = 0});
  CampaignRequest req = make_request(march);
  req.checkpoint_path = path;
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kFailed);
  ASSERT_EQ(out.shards_done, kDoneShards);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Resumes against `path` and requires: completion, exactly
/// `expect_resumed` shards adopted, a salvage counted, and a final
/// result bit-identical to the uninterrupted reference.
void expect_salvaged_resume(bool march, const std::string& path,
                            std::size_t expect_resumed) {
  CampaignService service({.threads = 1});
  CampaignRequest req = make_request(march);
  req.checkpoint_path = path;
  req.resume = true;
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  EXPECT_EQ(out.shards_total, kShards);
  EXPECT_EQ(out.shards_resumed, expect_resumed);
  expect_identical(out.result, reference_result(march));
  EXPECT_EQ(service.stats().checkpoint_salvaged, 1u);
  EXPECT_EQ(service.stats().shards_resumed, expect_resumed);
}

using Tokens = std::vector<std::string>;

/// Position of `word` in a record payload's tokens.
std::size_t find_token(const Tokens& t, const std::string& word) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i] == word) return i;
  }
  ADD_FAILURE() << "no '" << word << "' in the record";
  return t.size();
}

/// Adds `delta` to the integer token at `i`.
void bump(Tokens& t, std::size_t i, long long delta) {
  t[i] = std::to_string(std::stoll(t[i]) + delta);
}

/// Applies `edit` to the tokens of record `rec` (0-based, after the
/// header and meta lines) and re-signs the line with a valid CRC, so
/// only the record-versus-batch checks can reject it.  Payload:
///   batch <i> ops <n> overall <d> <t> classes <k> (<cls> <d> <t>)*
///   escapes <e> <index>* dispatch <packed> <scalar>
void rewrite_record(const std::string& path, std::size_t rec,
                    void (*edit)(Tokens&)) {
  std::istringstream in(read_file(path));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_GT(lines.size(), rec + 2);
  std::istringstream fields(lines[rec + 2].substr(std::string("rec ").size() +
                                                  9));
  Tokens tokens;
  for (std::string token; fields >> token;) tokens.push_back(token);
  edit(tokens);
  std::string payload;
  for (const std::string& token : tokens) {
    payload += (payload.empty() ? "" : " ") + token;
  }
  std::ostringstream crc;
  crc << std::hex << std::setw(8) << std::setfill('0')
      << util::crc32(payload);
  lines[rec + 2] = "rec " + crc.str() + " " + payload;
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  write_file(path, text);
}

/// Position of the first class entry (<cls> <d> <t>) with a detection.
std::size_t detecting_class(const Tokens& t) {
  std::size_t cls = find_token(t, "classes") + 2;
  while (t[cls + 1] == "0") cls += 3;
  return cls;
}

/// One detection of the record's overall tally and of its first class
/// with a detection becomes an escape at index 999999, far outside any
/// batch; every count stays consistent.
void add_out_of_range_escape(Tokens& t) {
  bump(t, find_token(t, "overall") + 1, -1);
  bump(t, detecting_class(t) + 1, -1);
  const std::size_t escapes = find_token(t, "escapes");
  bump(t, escapes + 1, 1);
  t.insert(t.begin() + static_cast<std::ptrdiff_t>(find_token(t, "dispatch")),
           "999999");
}

/// The record claims one fault fewer than its batch holds, with class
/// and dispatch tallies shrunk to match.
void drop_one_fault(Tokens& t) {
  const std::size_t overall = find_token(t, "overall");
  bump(t, overall + 1, -1);
  bump(t, overall + 2, -1);
  const std::size_t cls = detecting_class(t);
  bump(t, cls + 1, -1);
  bump(t, cls + 2, -1);
  bump(t, find_token(t, "dispatch") + 1, -1);
}

/// The first class tally is filed under a class id no fault has.
void unknown_class(Tokens& t) { t[find_token(t, "classes") + 2] = "99"; }

void run_corruption_matrix(bool march) {
  const char* tag = march ? "march" : "prt";

  {
    SCOPED_TRACE("truncated tail");
    const std::string path =
        temp_checkpoint(std::string("ckpt_trunc_") + tag + ".ckpt");
    write_interrupted_checkpoint(march, path);
    std::string text = read_file(path);
    ASSERT_GT(text.size(), 10u);
    text.resize(text.size() - 10);  // tear the last record mid-line
    write_file(path, text);
    expect_salvaged_resume(march, path, kDoneShards - 1);
    std::remove(path.c_str());
  }

  {
    SCOPED_TRACE("flipped byte in a middle record");
    const std::string path =
        temp_checkpoint(std::string("ckpt_flip_") + tag + ".ckpt");
    write_interrupted_checkpoint(march, path);
    std::string text = read_file(path);
    // Lines: header, meta, then kDoneShards records.  Flip one byte in
    // the middle of the *second* record: its CRC fails, so the valid
    // prefix is exactly one record — the records after the flip are
    // intact but unreachable (prefix salvage never skips over damage).
    std::vector<std::size_t> starts;
    for (std::size_t pos = 0; pos != std::string::npos && pos < text.size();
         pos = text.find('\n', pos) + 1) {
      starts.push_back(pos);
      if (text.find('\n', pos) == std::string::npos) break;
    }
    ASSERT_GE(starts.size(), 4u);
    const std::size_t rec2 = starts[3];
    const std::size_t rec2_len = text.find('\n', rec2) - rec2;
    text[rec2 + rec2_len / 2] ^= 0x01;
    write_file(path, text);
    expect_salvaged_resume(march, path, 1);
    std::remove(path.c_str());
  }

  using Edit = std::pair<const char*, void (*)(Tokens&)>;
  for (const auto& [what, edit] :
       {Edit{"CRC-valid record with an out-of-range escape",
             add_out_of_range_escape},
        Edit{"CRC-valid record with a wrong fault total", drop_one_fault},
        Edit{"CRC-valid record with an unknown fault class",
             unknown_class}}) {
    SCOPED_TRACE(what);
    const std::string path =
        temp_checkpoint(std::string("ckpt_record_") + tag + ".ckpt");
    write_interrupted_checkpoint(march, path);
    // The second record is re-signed after the edit: the first one is
    // kept and the rest recomputed.
    rewrite_record(path, 1, edit);
    expect_salvaged_resume(march, path, 1);
    std::remove(path.c_str());
  }

  for (const char* old_header :
       {"prt-campaign-checkpoint v1", "prt-campaign-checkpoint v2"}) {
    SCOPED_TRACE(std::string("old version header: ") + old_header);
    const std::string path =
        temp_checkpoint(std::string("ckpt_header_") + tag + ".ckpt");
    write_interrupted_checkpoint(march, path);
    std::string text = read_file(path);
    const std::size_t eol = text.find('\n');
    ASSERT_NE(eol, std::string::npos);
    text.replace(0, eol, old_header);
    write_file(path, text);
    // An unknown format carries nothing trustworthy: fresh run.  (A v2
    // file's shard records cover a worker-count partition, not the
    // fixed batches.)
    expect_salvaged_resume(march, path, 0);
    std::remove(path.c_str());
  }

  {
    SCOPED_TRACE("empty file");
    const std::string path =
        temp_checkpoint(std::string("ckpt_empty_") + tag + ".ckpt");
    write_interrupted_checkpoint(march, path);
    write_file(path, "");
    expect_salvaged_resume(march, path, 0);
    std::remove(path.c_str());
  }

  {
    SCOPED_TRACE("fingerprint mismatch is a hard failure");
    const std::string path =
        temp_checkpoint(std::string("ckpt_fp_") + tag + ".ckpt");
    write_interrupted_checkpoint(march, path);
    CampaignService service({.threads = 1});
    CampaignRequest req = make_request(march);
    req.universe.pop_back();  // a *different* campaign, not a damaged one
    req.checkpoint_path = path;
    req.resume = true;
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    ASSERT_EQ(out.status, RequestStatus::kFailed);
    EXPECT_NE(out.error.find("fingerprint"), std::string::npos);
    EXPECT_EQ(out.shards_done, 0u);
    EXPECT_EQ(service.stats().checkpoint_salvaged, 0u);
    std::remove(path.c_str());
  }
}

TEST(CheckpointRecovery, PrtCorruptionMatrix) { run_corruption_matrix(false); }
TEST(CheckpointRecovery, MarchCorruptionMatrix) {
  run_corruption_matrix(true);
}

// --- injected partial final write -----------------------------------

void run_partial_write_case(bool march, std::size_t torn_bytes,
                            std::size_t max_resumed) {
  SCOPED_TRACE("torn at " + std::to_string(torn_bytes) + " bytes");
  const std::string path = temp_checkpoint(
      std::string("ckpt_partial_") + (march ? "march" : "prt") + "_" +
      std::to_string(torn_bytes) + ".ckpt");
  {
    FailPointScope scope;
    FailPoint::arm("campaign_service.shard",
                   {.skip = static_cast<int>(kDoneShards), .fires = -1});
    // The cadence checkpoints (after shards 1..4) succeed; the final
    // flush — the write a real crash is most likely to tear, arriving
    // with the failure itself — is truncated at torn_bytes and fails.
    FailPoint::arm("campaign_service.checkpoint",
                   {.action = FailPoint::Action::kPartialWrite,
                    .skip = static_cast<int>(kDoneShards),
                    .fires = 1,
                    .bytes = torn_bytes});
    CampaignService service({.threads = 1, .max_retries = 0});
    CampaignRequest req = make_request(march);
    req.checkpoint_path = path;
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    ASSERT_EQ(out.status, RequestStatus::kFailed);
    EXPECT_GE(service.stats().checkpoint_failures, 1u);
  }
  {
    // Whatever prefix survived the tear is salvaged; nothing torn is
    // ever merged (bit-identity is the proof).
    CampaignService service({.threads = 1});
    CampaignRequest req = make_request(march);
    req.checkpoint_path = path;
    req.resume = true;
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    ASSERT_EQ(out.status, RequestStatus::kComplete);
    EXPECT_LE(out.shards_resumed, max_resumed);
    expect_identical(out.result, reference_result(march));
  }
  std::remove(path.c_str());
}

TEST(CheckpointRecovery, PartialFinalWriteTornMidMeta) {
  // 40 bytes: the header survives, the meta line is cut mid-CRC — the
  // salvage is a fresh run.
  run_partial_write_case(false, 40, 0);
}

TEST(CheckpointRecovery, PartialFinalWriteTornMidRecords) {
  // 200 bytes lands somewhere inside the record block: a strict
  // prefix of the four completed shards survives.
  run_partial_write_case(false, 200, kDoneShards - 1);
  run_partial_write_case(true, 200, kDoneShards - 1);
}

// --- fingerprint stability -----------------------------------------

/// The fingerprint on the meta line of the checkpoint at `path`.
std::string checkpoint_fingerprint(const std::string& path) {
  std::istringstream in(read_file(path));
  std::string header;
  std::string meta;
  std::getline(in, header);
  std::getline(in, meta);
  // meta <crc32hex> fingerprint <fp> batches <total>
  std::istringstream fields(meta);
  std::string tag;
  std::string crc;
  std::string key;
  std::string fingerprint;
  fields >> tag >> crc >> key >> fingerprint;
  EXPECT_EQ(key, "fingerprint");
  return fingerprint;
}

// A checkpoint written before CampaignRequest lost its `packed` flag
// must still resume, so a default request keeps the fingerprint it had
// then.  The expected values were recorded from checkpoints written by
// this test body while the flag still existed.
TEST(CheckpointRecovery, DefaultRequestFingerprintIsStable) {
  for (const bool march : {false, true}) {
    SCOPED_TRACE(march ? "march" : "prt");
    const std::string path = temp_checkpoint(
        std::string("ckpt_fingerprint_") + (march ? "march" : "prt") + ".ckpt");
    write_interrupted_checkpoint(march, path);
    EXPECT_EQ(checkpoint_fingerprint(path),
              march ? "34172c8c548c0c56" : "679df0a8c53d927a");
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace prt::analysis
