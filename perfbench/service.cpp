// The service workload: one CampaignService, one client submitting
// batch-priority whole-universe requests back to back, and the other
// clients submitting a seeded stream of thin interactive requests.
// Every client blocks on its ticket, so the loop is closed.  After the
// timed phase every outcome must be kComplete and must equal a
// synchronous engine run of the same request.
#include <array>
#include <atomic>
#include <exception>
#include <filesystem>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/campaign_engine.hpp"
#include "analysis/campaign_service.hpp"
#include "analysis/march_campaign.hpp"
#include "analysis/oracle_cache.hpp"
#include "common.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace prt;
using analysis::CampaignResult;
using analysis::RequestStatus;

constexpr unsigned kSetups = 5;
/// Keeps the oracle cache's residency bounded while redrawn schemes
/// keep adding entries.
constexpr std::size_t kCacheBudgetBytes = std::size_t{64} << 20;
constexpr std::array<mem::Addr, 3> kN = {256, 1024, 4096};
constexpr std::array<std::size_t, 3> kFaults = {64, 256, 1024};
/// Background requests run the whole van de Goor universe at kN[1].
constexpr unsigned kBackgroundN = 1;
/// Background requests per fixed-work run: about as long as the
/// interactive clients' fixed work, so both overlap throughout.
constexpr unsigned kFixedBackground = 32;

enum class Kind : std::uint8_t { kPrtExt, kPrt3, kMarch };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kPrtExt: return "prt-ext";
    case Kind::kPrt3: return "prt-3";
    case Kind::kMarch: return "march-c-";
  }
  return "?";
}

/// One request of the stream.  `faults == 0` means the whole universe.
struct Spec {
  Kind kind = Kind::kPrtExt;
  unsigned n_index = 0;
  std::size_t faults = 0;
  std::size_t offset = 0;
  bool high = false;
  bool early_abort = false;
  bool checkpoint = false;
  bool background = false;
  /// Nonzero: PRT-ext with its random-trajectory seeds redrawn from
  /// this value, so the request misses the oracle cache.
  std::uint64_t redraw = 0;
};

struct Inputs {
  std::array<std::vector<mem::Fault>, 3> universes;
  std::array<core::PrtScheme, 3> ext;
  std::array<core::PrtScheme, 3> prt3;
};

core::PrtScheme redrawn(const core::PrtScheme& base, std::uint64_t seed) {
  core::PrtScheme scheme = base;
  Xoshiro256 rng(seed);
  for (core::SchemeIteration& it : scheme.iterations) {
    if (it.config.trajectory == core::TrajectoryKind::kRandom) {
      it.config.seed = rng();
    }
  }
  return scheme;
}

Spec draw(Xoshiro256& rng, const Inputs& in) {
  Spec s;
  s.n_index = static_cast<unsigned>(rng.below(kN.size()));
  s.faults = kFaults[rng.below(kFaults.size())];
  const std::size_t stride = in.universes[s.n_index].size() / s.faults;
  s.offset = static_cast<std::size_t>(rng.below(4)) * stride / 4;
  s.high = rng.chance(1, 2);
  s.early_abort = rng.chance(1, 4);
  s.checkpoint = rng.chance(1, 8);
  if (rng.chance(1, 8)) {
    s.kind = Kind::kPrtExt;
    s.redraw = rng() | 1;
  } else {
    s.kind = static_cast<Kind>(rng.below(3));
  }
  return s;
}

Spec background_spec(unsigned count) {
  Spec s;
  s.kind = count % 2 == 0 ? Kind::kPrtExt : Kind::kMarch;
  s.n_index = kBackgroundN;
  s.background = true;
  return s;
}

std::vector<mem::Fault> universe_of(const Spec& s, const Inputs& in) {
  const std::vector<mem::Fault>& u = in.universes[s.n_index];
  if (s.faults == 0) return u;
  const std::size_t stride = u.size() / s.faults;
  std::vector<mem::Fault> out;
  out.reserve(s.faults);
  for (std::size_t i = 0; i < s.faults; ++i) out.push_back(u[s.offset + i * stride]);
  return out;
}

core::PrtScheme scheme_of(const Spec& s, const Inputs& in) {
  if (s.redraw != 0) return redrawn(in.ext[s.n_index], s.redraw);
  return s.kind == Kind::kPrt3 ? in.prt3[s.n_index] : in.ext[s.n_index];
}

analysis::CampaignRequest make_request(const Spec& s, const Inputs& in,
                                       const std::string& checkpoint) {
  analysis::CampaignRequest r;
  if (s.kind == Kind::kMarch) {
    r.march_test = march::march_c_minus();
  } else {
    r.scheme = scheme_of(s, in);
  }
  r.options.n = kN[s.n_index];
  r.early_abort = s.early_abort;
  r.universe = universe_of(s, in);
  r.priority = s.background ? analysis::RequestPriority::kBatch
               : s.high     ? analysis::RequestPriority::kHigh
                            : analysis::RequestPriority::kNormal;
  if (!checkpoint.empty()) {
    r.checkpoint_path = checkpoint;
    r.checkpoint_every = 1;
  }
  return r;
}

/// Universes, a cleared oracle cache, service construction and a
/// warm-up request per (scheme, n), which compiles every base artifact.
std::unique_ptr<analysis::CampaignService> set_up(const Options& opt,
                                                  Inputs& in, Checks& checks) {
  SpanScope span("service.setup");
  analysis::OracleCache::global().clear();
  {
    SpanScope universe("mem.universe");
    for (std::size_t i = 0; i < kN.size(); ++i) {
      in.universes[i] = mem::van_de_goor_universe(kN[i]);
    }
  }
  for (std::size_t i = 0; i < kN.size(); ++i) {
    in.ext[i] = core::extended_scheme_bom(kN[i]);
    in.prt3[i] = core::standard_scheme_bom(kN[i]);
  }
  analysis::ServiceOptions so;
  so.threads = opt.threads;
  so.cache_budget_bytes = kCacheBudgetBytes;
  auto service = std::make_unique<analysis::CampaignService>(so);
  for (const Kind kind : {Kind::kPrtExt, Kind::kPrt3, Kind::kMarch}) {
    for (unsigned n = 0; n < kN.size(); ++n) {
      Spec s;
      s.kind = kind;
      s.n_index = n;
      s.faults = kFaults[0];
      const analysis::RequestOutcome out =
          service->submit(make_request(s, in, "")).wait();
      if (out.status != RequestStatus::kComplete) {
        checks.fail("warm-up request resolved " + analysis::to_string(out.status));
      }
    }
  }
  return service;
}

struct Record {
  Spec spec;
  std::uint64_t id = 0;
  double latency_s = 0;
  double submit_s = 0;
  RequestStatus status = RequestStatus::kFailed;
  CampaignResult result;
  double sync_s = -1;  // < 0: verified against a memoized re-run
  bool ok = true;
};

std::string memo_key(const Spec& s) {
  return std::to_string(static_cast<int>(s.kind)) + "/" +
         std::to_string(s.n_index) + "/" + std::to_string(s.faults) + "/" +
         std::to_string(s.offset) + "/" + std::to_string(s.early_abort) + "/" +
         std::to_string(s.redraw);
}

/// Re-runs every request synchronously at the same worker count and
/// compares verdicts.  Identical requests share one re-run.
void verify(const Options& opt, const Inputs& in, std::vector<Record>& records,
            Checks& checks) {
  std::map<std::tuple<Kind, unsigned, bool>,
           std::unique_ptr<analysis::CampaignEngine>>
      engines;
  std::map<std::pair<unsigned, bool>, std::unique_ptr<analysis::MarchCampaign>>
      marches;
  std::map<std::string, CampaignResult> memo;
  for (Record& r : records) {
    if (r.status != RequestStatus::kComplete) {
      checks.fail("request " + std::to_string(r.id) + " resolved " +
                  analysis::to_string(r.status));
      r.ok = false;
      continue;
    }
    const std::string key = memo_key(r.spec);
    auto hit = memo.find(key);
    if (hit == memo.end()) {
      const std::vector<mem::Fault> universe = universe_of(r.spec, in);
      analysis::CampaignOptions copt;
      copt.n = kN[r.spec.n_index];
      CampaignResult reference;
      if (r.spec.kind == Kind::kMarch) {
        auto& campaign = marches[{r.spec.n_index, r.spec.early_abort}];
        if (!campaign) {
          analysis::MarchEngineOptions eng;
          eng.threads = opt.threads;
          eng.early_abort = r.spec.early_abort;
          campaign = std::make_unique<analysis::MarchCampaign>(
              march::march_c_minus(), copt, eng);
        }
        SpanScope span("analysis.sync", r.id);
        const auto t0 = Clock::now();
        reference = campaign->run(universe);
        r.sync_s = seconds_since(t0);
      } else {
        analysis::EngineOptions eng;
        eng.threads = opt.threads;
        eng.early_abort = r.spec.early_abort;
        std::unique_ptr<analysis::CampaignEngine> own;
        analysis::CampaignEngine* engine = nullptr;
        if (r.spec.redraw != 0) {
          own = std::make_unique<analysis::CampaignEngine>(scheme_of(r.spec, in),
                                                           copt, eng);
          engine = own.get();
        } else {
          auto& shared = engines[{r.spec.kind, r.spec.n_index, r.spec.early_abort}];
          if (!shared) {
            shared = std::make_unique<analysis::CampaignEngine>(
                scheme_of(r.spec, in), copt, eng);
          }
          engine = shared.get();
        }
        SpanScope span("analysis.sync", r.id);
        const auto t0 = Clock::now();
        reference = engine->run(universe);
        r.sync_s = seconds_since(t0);
      }
      hit = memo.emplace(key, std::move(reference)).first;
    }
    if (!same_verdict(r.result, hit->second)) {
      checks.fail("request " + std::to_string(r.id) + " (" +
                  kind_name(r.spec.kind) +
                  ") differs from a synchronous engine run");
      r.ok = false;
    }
  }
}

}  // namespace

int run_service(const Options& opt) {
  Checks checks;
  Inputs in;
  std::vector<double> setup_s;
  std::unique_ptr<analysis::CampaignService> service;
  for (unsigned i = 0; i < kSetups; ++i) {
    service.reset();
    const auto t0 = Clock::now();
    service = set_up(opt, in, checks);
    setup_s.push_back(seconds_since(t0));
  }
  const std::filesystem::path checkpoint_dir =
      std::filesystem::path(opt.workdir) / "checkpoints";
  std::filesystem::create_directories(checkpoint_dir);

  const unsigned interactive = opt.threads > 1 ? opt.threads - 1 : 1;
  const unsigned clients = interactive + 1;
  std::vector<std::vector<Record>> per_client(clients);
  std::atomic<std::uint64_t> next_id{1};
  std::latch start(clients + 1);
  Clock::time_point deadline{};
  const analysis::CampaignService::Stats before = service->stats();

  auto client_loop = [&](unsigned c) {
    const bool background = c == 0;
    Xoshiro256 rng(opt.seed * 0x9e3779b97f4a7c15ULL + c);
    const unsigned limit = background ? kFixedBackground : opt.requests;
    std::vector<Record>& out = per_client[c];
    start.arrive_and_wait();
    for (unsigned count = 0;; ++count) {
      if (opt.requests != 0 ? count >= limit : Clock::now() >= deadline) break;
      const Spec spec = background ? background_spec(count) : draw(rng, in);
      const std::uint64_t id = next_id.fetch_add(1);
      const std::string checkpoint =
          spec.checkpoint
              ? (checkpoint_dir / ("req-" + std::to_string(id) + ".ckpt")).string()
              : std::string();
      analysis::CampaignRequest request = make_request(spec, in, checkpoint);
      Record rec;
      rec.spec = spec;
      rec.id = id;
      SpanScope span("analysis.service.request", id);
      span.arg("faults", static_cast<std::uint64_t>(request.universe.size()));
      span.arg("background", static_cast<std::uint64_t>(spec.background));
      span.arg("cache_miss", static_cast<std::uint64_t>(spec.redraw != 0));
      span.arg("checkpointed", static_cast<std::uint64_t>(spec.checkpoint));
      span.arg("early_abort", static_cast<std::uint64_t>(spec.early_abort));
      const auto t0 = Clock::now();
      analysis::CampaignService::Ticket ticket;
      {
        SpanScope submit("analysis.service.submit");
        ticket = service->submit(std::move(request));
      }
      rec.submit_s = seconds_since(t0);
      {
        SpanScope wait("analysis.service.wait");
        const analysis::RequestOutcome& outcome = ticket.wait();
        rec.latency_s = seconds_since(t0);
        rec.status = outcome.status;
        rec.result = outcome.result;
      }
      span.arg("ops", rec.result.ops);
      out.push_back(std::move(rec));
    }
  };
  // An exception must not escape a client thread; the first one is
  // reported as a failed check once the clients are joined.
  std::mutex error_mutex;
  std::string client_error;
  auto client = [&](unsigned c) {
    try {
      client_loop(c);
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (client_error.empty()) client_error = e.what();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) threads.emplace_back(client, c);
  deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(opt.seconds));
  const auto phase = Clock::now();
  start.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  const double wall_s = seconds_since(phase);
  const std::uint64_t peak_kib = peak_rss_kib();
  const analysis::CampaignService::Stats after = service->stats();
  if (!client_error.empty()) checks.fail("client thread: " + client_error);

  std::vector<Record> records;
  for (auto& v : per_client) {
    for (Record& r : v) records.push_back(std::move(r));
  }
  verify(opt, in, records, checks);
  std::error_code ec;
  std::filesystem::remove_all(checkpoint_dir, ec);

  std::vector<std::string> rows;
  std::uint64_t failed = 0;
  for (const Record& r : records) {
    if (!r.ok) ++failed;
    Json j;
    j.num("id", r.id)
        .str("kind", kind_name(r.spec.kind))
        .num("n", static_cast<std::uint64_t>(kN[r.spec.n_index]))
        .num("faults", r.result.overall.total)
        .num("ops", r.result.ops)
        .boolean("background", r.spec.background)
        .boolean("cache_miss", r.spec.redraw != 0)
        .boolean("checkpointed", r.spec.checkpoint)
        .boolean("early_abort", r.spec.early_abort)
        .num("latency_s", r.latency_s)
        .num("submit_s", r.submit_s)
        .num("sync_s", r.sync_s)
        .boolean("ok", r.ok);
    rows.push_back(j.render());
  }
  Json stats;
  stats.num("cache_hits", after.cache_hits - before.cache_hits)
      .num("cache_misses", after.cache_misses - before.cache_misses)
      .num("checkpoint_writes", after.checkpoint_writes - before.checkpoint_writes)
      .num("rejected", after.rejected - before.rejected)
      .num("shedded", after.shedded - before.shedded)
      .num("retries", after.shard_retries - before.shard_retries);
  Json result;
  result.str("workload", "service")
      .raw("setup_s", json_numbers(setup_s))
      .num("wall_s", wall_s)
      .num("peak_rss_kib", peak_kib)
      .num("clients", static_cast<std::uint64_t>(clients))
      .raw("requests", json_array(rows))
      .raw("stats", stats.render())
      .num("attempted", static_cast<std::uint64_t>(records.size()))
      .num("failed", failed);
  service.reset();
  return finish(opt, result, checks, 3, "service");
}

}  // namespace perfbench
