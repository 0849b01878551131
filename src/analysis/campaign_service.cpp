#include "analysis/campaign_service.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iomanip>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analysis/campaign_driver.hpp"
#include "analysis/oracle_cache.hpp"
#include "march/march_test.hpp"
#include "mem/fault.hpp"
#include "util/annotations.hpp"
#include "util/crc32.hpp"
#include "util/durable_write.hpp"
#include "util/fail_point.hpp"
#include "util/stop_token.hpp"
#include "util/thread_pool.hpp"

namespace prt::analysis {

namespace {

// --- fingerprint ----------------------------------------------------
// FNV-1a over everything that determines a campaign's result: workload
// structure (scheme/test fingerprint), geometry, run options and the
// full universe.  A checkpoint is only ever merged into a request with
// the same fingerprint — resuming against a renamed-but-identical
// workload works, resuming against different faults cannot.

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void byte(unsigned char b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void mix(const std::string& s) {
    mix(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
};

std::string request_fingerprint(const CampaignRequest& req) {
  Fnv1a f;
  if (req.scheme) {
    f.mix(std::string("prt"));
    f.mix(core::scheme_fingerprint(*req.scheme));
  } else {
    f.mix(std::string("march"));
    f.mix(march::test_fingerprint(*req.march_test));
  }
  f.mix(req.options.n);
  f.mix(req.options.m);
  f.mix(1);  // the retired `ports` field (always 1): old checkpoints resume
  f.mix(1);  // the retired `packed` flag (always 1), likewise
  f.mix(req.early_abort ? 1 : 0);
  f.mix(req.universe.size());
  for (const mem::Fault& fault : req.universe) {
    f.mix(static_cast<std::uint64_t>(fault.kind));
    f.mix(fault.victim.cell);
    f.mix(fault.victim.bit);
    f.mix(fault.aggressor.cell);
    f.mix(fault.aggressor.bit);
    f.mix(fault.state);
    f.mix(fault.alias);
    f.mix(fault.pattern);
    f.mix(fault.grid_cols);
    f.mix(fault.delay);
  }
  std::ostringstream hex;
  hex << std::hex << f.h;
  return hex.str();
}

// --- checkpoint file (format v3) ------------------------------------
// Plain text, integers only — parse(serialize(x)) is exact, which the
// resumed-equals-uninterrupted bit-identity guarantee rests on.  Every
// line after the version header carries its own CRC-32 so the loader
// can salvage the longest valid prefix of a torn or corrupted file
// (DESIGN.md §13).  Records are per fixed kSchedulerBatch batch, so a
// checkpoint resumes at any worker count (DESIGN.md §16):
//
//   prt-campaign-checkpoint v3
//   meta <crc32hex> fingerprint <fp> batches <total>
//   rec <crc32hex> batch <idx> ops <n> overall <d> <t> classes ...
//       escapes ... dispatch <packed> <scalar>
//
// The dispatch pair counted the faults of the retired per-fault scalar
// route.  Every fault rides a lane now, so the writer emits
// "<total> 0"; the reader still requires the pair to split the
// record's faults, so files written before and after resume alike
// (DESIGN.md §20).
//
// Each <crc32hex> is 8 lowercase hex digits over the rest of its line
// (the payload after "<crc32hex> ").  Replaced durably and atomically
// (util::durable_replace_file), so a *clean* crash leaves the previous
// checkpoint; the CRCs cover everything else (torn tails from
// power-loss on non-atomic media, bit rot, truncation in transit).

constexpr char kCheckpointHeader[] = "prt-campaign-checkpoint v3";

/// Loader guard against absurd (CRC-valid but foreign/crafted) batch
/// counts; the count is re-validated against the universe after the
/// fingerprint matched.
constexpr std::size_t kMaxCheckpointBatches = std::size_t{1} << 24;

struct Checkpoint {
  std::string fingerprint;
  detail::BatchResults batches;
};

std::string crc_hex(std::uint32_t crc) {
  std::ostringstream hex;
  hex << std::hex << std::setw(8) << std::setfill('0') << crc;
  return hex.str();
}

std::string batch_record_payload(std::size_t index, const CampaignResult& r) {
  std::ostringstream out;
  out << "batch " << index << " ops " << r.ops << " overall "
      << r.overall.detected << " " << r.overall.total << " classes "
      << r.by_class.size();
  for (const auto& [cls, cov] : r.by_class) {
    out << " " << static_cast<unsigned>(cls) << " " << cov.detected << " "
        << cov.total;
  }
  out << " escapes " << r.escapes.size();
  for (const std::size_t e : r.escapes) out << " " << e;
  out << " dispatch " << r.overall.total << " 0";
  return out.str();
}

std::string serialize_checkpoint(const std::string& fingerprint,
                                 const detail::BatchResults& batches) {
  std::ostringstream out;
  out << kCheckpointHeader << "\n";
  const std::string meta = "fingerprint " + fingerprint + " batches " +
                           std::to_string(batches.size());
  out << "meta " << crc_hex(util::crc32(meta)) << " " << meta << "\n";
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (!batches[b]) continue;
    const std::string payload = batch_record_payload(b, *batches[b]);
    out << "rec " << crc_hex(util::crc32(payload)) << " " << payload << "\n";
  }
  return out.str();
}

/// Validates "<tag> <crc32hex> <payload>" and returns the payload; any
/// structural or checksum mismatch is nullopt (the caller decides
/// whether that salvages or fails).
std::optional<std::string> checked_payload(const std::string& line,
                                           const std::string& tag) {
  const std::string prefix = tag + " ";
  if (line.rfind(prefix, 0) != 0) return std::nullopt;
  if (line.size() < prefix.size() + 10) return std::nullopt;
  if (line[prefix.size() + 8] != ' ') return std::nullopt;
  std::uint32_t want = 0;
  for (std::size_t i = prefix.size(); i < prefix.size() + 8; ++i) {
    const char c = line[i];
    std::uint32_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint32_t>(c - 'a') + 10;
    } else {
      return std::nullopt;
    }
    want = (want << 4) | digit;
  }
  std::string payload = line.substr(prefix.size() + 9);
  if (util::crc32(payload) != want) return std::nullopt;
  return payload;
}

/// Parses one CRC-verified record payload.  Returns false on any
/// malformation (wrong keyword, truncation, trailing junk) — the CRC
/// makes this unreachable for records we wrote, but the loader treats
/// parse failure exactly like a checksum failure: end of the valid
/// prefix.
bool parse_batch_record(const std::string& payload, std::size_t& index,
                        CampaignResult& r) {
  std::istringstream in(payload);
  std::string word;
  if (!(in >> word) || word != "batch" || !(in >> index)) return false;
  if (!(in >> word) || word != "ops" || !(in >> r.ops)) return false;
  if (!(in >> word) || word != "overall" ||
      !(in >> r.overall.detected >> r.overall.total)) {
    return false;
  }
  if (!(in >> word) || word != "classes") return false;
  std::size_t classes = 0;
  if (!(in >> classes) || classes > 64) return false;
  for (std::size_t c = 0; c < classes; ++c) {
    unsigned cls = 0;
    ClassCoverage cov;
    if (!(in >> cls >> cov.detected >> cov.total) ||
        cls > static_cast<unsigned>(mem::FaultClass::kRetention)) {
      return false;
    }
    r.by_class[static_cast<mem::FaultClass>(cls)] = cov;
  }
  if (!(in >> word) || word != "escapes") return false;
  std::size_t escapes = 0;
  if (!(in >> escapes)) return false;
  for (std::size_t e = 0; e < escapes; ++e) {
    std::size_t idx = 0;
    if (!(in >> idx)) return false;
    r.escapes.push_back(idx);
  }
  std::uint64_t packed = 0;
  std::uint64_t scalar = 0;
  if (!(in >> word) || word != "dispatch" || !(in >> packed >> scalar) ||
      packed > r.overall.total || scalar != r.overall.total - packed) {
    return false;
  }
  return !(in >> word);  // trailing junk
}

/// True when a CRC-valid record is a plausible tally of its batch
/// [begin, end): it counts every fault of the batch once (so its
/// dispatch pair, which parse_batch_record checked against the
/// record's total, splits the batch), its class tallies sum to the
/// overall one and its escapes are exactly the undetected faults
/// (strictly ascending inside the batch).  Every bound is checked
/// before a sum is formed, so no crafted value can wrap a total into
/// range.
bool consistent_record(const CampaignResult& r, std::size_t begin,
                       std::size_t end) {
  const std::uint64_t total = end - begin;
  if (r.overall.total != total || r.overall.detected > total) return false;
  ClassCoverage sum;
  for (const auto& [cls, cov] : r.by_class) {
    if (cov.total > total || cov.detected > cov.total) return false;
    sum.total += cov.total;
    sum.detected += cov.detected;
  }
  if (sum != r.overall) return false;
  if (r.escapes.size() != total - r.overall.detected) return false;
  std::size_t next = begin;
  for (const std::size_t e : r.escapes) {
    if (e < next || e >= end) return false;
    next = e + 1;
  }
  return true;
}

/// Drops the first record that is not consistent with its batch, and
/// every record after it — the same prefix rule as a CRC failure.
/// Returns whether it dropped anything.
bool drop_inconsistent(detail::BatchResults& batches, std::size_t size) {
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (!batches[b]) continue;
    const std::size_t begin = b * detail::kSchedulerBatch;
    const std::size_t end = std::min(begin + detail::kSchedulerBatch, size);
    if (consistent_record(*batches[b], begin, end)) continue;
    for (; b < batches.size(); ++b) batches[b].reset();
    return true;
  }
  return false;
}

/// Result of reading a checkpoint file for resume.
struct CheckpointLoad {
  /// The adopted checkpoint; nullopt = start fresh (file missing, or
  /// nothing before the records was usable).
  std::optional<Checkpoint> checkpoint;
  /// Corruption was detected and the valid prefix (possibly empty)
  /// was kept.  False for a missing file — that is a fresh run, not a
  /// salvage.
  bool salvaged = false;
};

/// Loads a v3 checkpoint, salvaging the longest valid prefix.
/// Decision table:
///   missing file                          -> fresh run
///   bad/old version header, bad meta CRC  -> fresh run, salvaged
///   record k fails CRC/parse, or repeats
///   or overruns the batch count           -> records [0, k), salvaged
/// Only the *caller* can hard-fail (fingerprint mismatch) — by the
/// time integrity is established, every remaining mismatch means "a
/// different campaign", never "corruption".  The caller then checks
/// each record against its batch (drop_inconsistent).
CheckpointLoad load_checkpoint(const std::string& path) {
  CheckpointLoad out;
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;
  std::string header;
  if (!std::getline(in, header) || header != kCheckpointHeader) {
    out.salvaged = true;
    return out;
  }
  std::string meta_line;
  std::optional<std::string> meta;
  if (std::getline(in, meta_line)) meta = checked_payload(meta_line, "meta");
  if (!meta) {
    out.salvaged = true;
    return out;
  }
  Checkpoint cp;
  {
    std::istringstream m(*meta);
    std::string word;
    std::string trailing;
    std::size_t total = 0;
    if (!(m >> word) || word != "fingerprint" || !(m >> cp.fingerprint) ||
        !(m >> word) || word != "batches" || !(m >> total) ||
        (m >> trailing) || total < 1 || total > kMaxCheckpointBatches) {
      out.salvaged = true;
      return out;
    }
    cp.batches.resize(total);
  }
  std::string line;
  while (std::getline(in, line)) {
    const std::optional<std::string> payload = checked_payload(line, "rec");
    std::size_t index = 0;
    CampaignResult result;
    if (!payload || !parse_batch_record(*payload, index, result) ||
        index >= cp.batches.size() || cp.batches[index]) {
      // End of the valid prefix: keep what verified.
      out.salvaged = true;
      break;
    }
    cp.batches[index] = std::move(result);
  }
  out.checkpoint = std::move(cp);
  return out;
}

/// Durable atomic replace: write `path + ".tmp"`, fsync it, rename it
/// over `path`, fsync the directory (util::durable_replace_file) — a
/// crash at any point leaves either the previous checkpoint or the new
/// one, fully persisted, never a torn or lost file.  The
/// "campaign_service.checkpoint" fail point sits in front so tests can
/// fail writes without touching the filesystem; its kPartialWrite
/// action *does* touch it, replacing the file with a truncated image
/// before failing — the deterministic stand-in for a torn tail on
/// media where the atomic-replace guarantees do not hold.
void write_checkpoint_file(const std::string& path, const std::string& text) {
  if (const std::optional<util::FailPoint::Config> fired =
          util::FailPoint::poll("campaign_service.checkpoint")) {
    switch (fired->action) {
      case util::FailPoint::Action::kThrow:
        throw util::FailPointError(
            "fail point 'campaign_service.checkpoint' fired");
      case util::FailPoint::Action::kDelay:
        std::this_thread::sleep_for(fired->delay);
        break;
      case util::FailPoint::Action::kPartialWrite:
        util::durable_replace_file(path, text.substr(0, fired->bytes));
        throw util::FailPointError(
            "fail point 'campaign_service.checkpoint' fired (partial write "
            "of " +
            std::to_string(fired->bytes) + " bytes)");
    }
  }
  util::durable_replace_file(path, text);
}

}  // namespace

std::string to_string(RequestStatus status) {
  switch (status) {
    case RequestStatus::kComplete:
      return "complete";
    case RequestStatus::kPartialCancelled:
      return "partial (cancelled)";
    case RequestStatus::kPartialDeadline:
      return "partial (deadline)";
    case RequestStatus::kFailed:
      return "failed";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kShedded:
      return "shedded";
  }
  return "unknown";
}

std::string to_string(RequestPriority priority) {
  switch (priority) {
    case RequestPriority::kHigh:
      return "high";
    case RequestPriority::kNormal:
      return "normal";
    case RequestPriority::kBatch:
      return "batch";
  }
  return "unknown";
}

// --- request state --------------------------------------------------

namespace detail {

/// Shared state of one request, owned jointly by the caller's Ticket,
/// the admission queue and every pool task working the request (the
/// tasks hold `job` through a shared_ptr that aliases the request).
struct ServiceRequest {
  // Invariant (publication, invisible to thread-safety analysis): `req`
  // is written on the submitting thread before the request enters the
  // admission queue (queue push and every later read happen under the
  // service's `mu`, or on pool tasks that happen-after the push) and
  // never again.
  CampaignRequest req;
  /// The request on the campaign executor; `job.stop` is the request's
  /// stop source (cancel() and the deadline).
  Job job;

  util::Mutex mu;
  util::CondVar cv;
  bool finished PRT_GUARDED_BY(mu) = false;
  RequestOutcome outcome PRT_GUARDED_BY(mu);
};

}  // namespace detail

// --- ticket ---------------------------------------------------------

CampaignService::Ticket::Ticket(std::shared_ptr<detail::ServiceRequest> request)
    : request_(std::move(request)) {}

const RequestOutcome& CampaignService::Ticket::wait() const& {
  if (!request_) throw std::logic_error("wait() on a default Ticket");
  util::MutexLock lock(request_->mu);
  while (!request_->finished) request_->cv.wait(lock);
  // `outcome` is written once, before `finished` latches; handing the
  // reference out past the lock is safe because no writer runs again.
  return request_->outcome;
}

RequestOutcome CampaignService::Ticket::wait() && {
  // The outcome lives inside the request the ticket owns, so a
  // temporary ticket (`service.submit(...).wait()`) must hand the
  // outcome out by value — a reference would dangle the moment the
  // temporary is destroyed at the end of the full expression.
  return static_cast<const Ticket&>(*this).wait();
}

bool CampaignService::Ticket::done() const {
  if (!request_) return true;
  util::MutexLock lock(request_->mu);
  return request_->finished;
}

void CampaignService::Ticket::cancel() const {
  if (request_) request_->job.stop.request_stop();
}

// --- service --------------------------------------------------------

struct CampaignService::Impl {
  using Request = detail::ServiceRequest;

  static constexpr std::size_t kClasses = 3;

  ServiceOptions options;
  /// The process-wide pool for options.threads (util::shared_pool).
  util::ThreadPool& pool;

  util::Mutex mu;
  util::CondVar all_done;
  /// Admission queues, one per RequestPriority, drained in class
  /// order then FIFO by dispatch_locked().
  std::array<std::deque<std::shared_ptr<Request>>, kClasses> queues
      PRT_GUARDED_BY(mu);
  /// Requests dispatched to the executor and not yet resolved; bounded
  /// by options.max_running.
  std::size_t running PRT_GUARDED_BY(mu) = 0;
  /// Queued + running — what wait_all() waits out.
  std::size_t unresolved PRT_GUARDED_BY(mu) = 0;

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> shedded{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> partial{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> shard_retries{0};
  std::atomic<std::uint64_t> checkpoint_writes{0};
  std::atomic<std::uint64_t> checkpoint_failures{0};
  std::atomic<std::uint64_t> checkpoint_salvaged{0};
  std::atomic<std::uint64_t> shards_resumed{0};

  explicit Impl(const ServiceOptions& o)
      : options(o), pool(util::shared_pool(o.threads)) {}

  [[nodiscard]] std::size_t queue_bound(RequestPriority priority) const {
    switch (priority) {
      case RequestPriority::kHigh:
        return options.queue_bound_high;
      case RequestPriority::kNormal:
        return options.queue_bound_normal;
      case RequestPriority::kBatch:
        return options.queue_bound_batch;
    }
    return 0;
  }

  /// Drains the admission queues — strictly by class, FIFO within one —
  /// into the running window.  A request whose deadline expired while
  /// it was queued is shed instead of dispatched: it resolves kShedded
  /// before any oracle work.  Callers hold `mu`; runs after every
  /// admission and every release.
  void dispatch_locked() PRT_REQUIRES(mu) {
    while (running < options.max_running) {
      std::shared_ptr<Request> next;
      for (auto& queue : queues) {
        if (!queue.empty()) {
          next = std::move(queue.front());
          queue.pop_front();
          break;
        }
      }
      if (!next) return;
      if (next->job.stop.token().reason() == util::StopReason::kDeadline) {
        ++shedded;
        --unresolved;
        {
          // Lock order: service mu (held) before request mu — the only
          // nesting direction anywhere (finish() nests the same way).
          util::MutexLock request_lock(next->mu);
          next->outcome.status = RequestStatus::kShedded;
          next->outcome.error = "shed: deadline expired while queued";
          next->finished = true;
          next->cv.notify_all();
        }
        all_done.notify_all();
        continue;
      }
      ++running;
      start(next);
    }
  }

  /// Hands a dispatched request to the executor.  The setup runs as
  /// the job's prepare step on the pool, so the job never resolves on
  /// this thread (which holds `mu`).  Hooks capture the request raw:
  /// every task holds it alive through the aliasing job pointer.
  void start(const std::shared_ptr<Request>& r) {
    Request* request = r.get();
    const std::shared_ptr<detail::Job> job(r, &r->job);
    job->size = r->req.universe.size();
    job->max_retries = options.max_retries;
    job->prepare = [this, request](detail::Job& j) { prepare(*request, j); };
    job->on_done = [this, request](detail::JobOutcome done) {
      finish(*request, std::move(done));
    };
    detail::Job::start(pool, job);
  }

  /// The setup step (a pool task): builds the driver (oracle-cache
  /// builds happen here, not on the submitting thread), fingerprints
  /// the request, loads, validates or salvages the checkpoint, adopts
  /// its batches and arms the checkpoint hook.  A throw fails the
  /// request (kFailed, the message as its error).
  void prepare(const Request& r, detail::Job& job) {
    const CampaignRequest& req = r.req;
    const EngineOptions engine{.early_abort = req.early_abort};
    const detail::Job::RunBatch run =
        (req.scheme ? detail::make_driver(*req.scheme, req.options, engine)
                    : detail::make_driver(*req.march_test, req.options,
                                          engine))
            .runner(req.universe);
    // One attempt of one batch behind the "campaign_service.shard"
    // fail point, the stand-in for a crashed worker.
    job.run = [run](std::size_t begin, std::size_t end, CampaignResult& out,
                    const util::StopToken& stop) {
      util::FailPoint::hit("campaign_service.shard");
      return run(begin, end, out, stop);
    };
    if (req.checkpoint_path.empty()) return;
    const std::string fingerprint = request_fingerprint(req);
    if (req.resume) {
      CheckpointLoad loaded = load_checkpoint(req.checkpoint_path);
      if (loaded.checkpoint) {
        Checkpoint& cp = *loaded.checkpoint;
        if (cp.fingerprint != fingerprint) {
          throw std::runtime_error(
              "checkpoint fingerprint mismatch: " + req.checkpoint_path +
              " records a different campaign (workload, options or "
              "universe changed; checkpoint " +
              cp.fingerprint + ", request " + fingerprint + ")");
        }
        if (cp.batches.size() != detail::batch_count(req.universe.size())) {
          throw std::runtime_error(
              "malformed checkpoint (" + std::to_string(cp.batches.size()) +
              " batches for a " + std::to_string(req.universe.size()) +
              "-fault universe): " + req.checkpoint_path);
        }
        if (drop_inconsistent(cp.batches, req.universe.size())) {
          loaded.salvaged = true;
        }
        shards_resumed += job.adopt(std::move(cp.batches));
      }
      if (loaded.salvaged) ++checkpoint_salvaged;
    }
    // Checkpointing is best-effort durability: a failed write is
    // counted, never fatal — the campaign itself keeps running.
    job.checkpoint_every = req.checkpoint_every;
    job.checkpoint = [this, path = req.checkpoint_path,
                      fingerprint](const detail::BatchResults& batches) {
      try {
        write_checkpoint_file(path, serialize_checkpoint(fingerprint, batches));
        ++checkpoint_writes;
      } catch (...) {
        ++checkpoint_failures;
      }
    };
  }

  /// The job's completion callback: fixes the request status, removes
  /// the checkpoint of a completed request, rolls the counters up,
  /// resolves the ticket and frees the running slot.
  void finish(Request& r, detail::JobOutcome done) {
    RequestOutcome out;
    out.result = std::move(done.run.result);
    out.shards_done = done.run.shards_done;
    out.shards_total = done.run.shards_total;
    out.shards_resumed = done.resumed;
    if (done.exception) {
      out.status = RequestStatus::kFailed;
      out.error = std::move(done.error);
      ++failed;
    } else if (done.run.status == RunStatus::kComplete) {
      out.status = RequestStatus::kComplete;
      ++completed;
      if (!r.req.checkpoint_path.empty()) {
        std::remove(r.req.checkpoint_path.c_str());
      }
    } else {
      out.status = done.run.status == RunStatus::kDeadlineExpired
                       ? RequestStatus::kPartialDeadline
                       : RequestStatus::kPartialCancelled;
      ++partial;
    }
    shard_retries += done.retries;
    // The ticket resolves under the service lock, so a waiter's next
    // stats() already sees the running slot freed.
    util::MutexLock lock(mu);
    {
      util::MutexLock request_lock(r.mu);
      r.outcome = std::move(out);
      r.finished = true;
      r.cv.notify_all();
    }
    --running;
    --unresolved;
    dispatch_locked();
    all_done.notify_all();
  }
};

namespace {

ServiceOptions validated(const ServiceOptions& options) {
  if (options.max_running == 0) {
    throw std::invalid_argument(
        "ServiceOptions: max_running must be >= 1 (got 0)");
  }
  if (options.max_retries < 0) {
    throw std::invalid_argument(
        "ServiceOptions: max_retries must be >= 0 (got " +
        std::to_string(options.max_retries) + ")");
  }
  return options;
}

}  // namespace

CampaignService::CampaignService(const ServiceOptions& options)
    : impl_(std::make_unique<Impl>(validated(options))) {
  if (options.cache_budget_bytes != 0) {
    OracleCache::global().set_budget_bytes(options.cache_budget_bytes);
  }
}

CampaignService::~CampaignService() { wait_all(); }

CampaignService::Ticket CampaignService::submit(CampaignRequest request) {
  auto r = std::make_shared<detail::ServiceRequest>();
  r->req = std::move(request);

  // Fail-fast validation on the submitting thread: a malformed request
  // resolves immediately instead of occupying a queue slot.  Every
  // message names the offending value.
  std::string invalid;
  if (static_cast<bool>(r->req.scheme) ==
      static_cast<bool>(r->req.march_test)) {
    invalid = std::string("exactly one of scheme / march_test must be set "
                          "(got ") +
              (r->req.scheme ? "both" : "neither") + ")";
  } else if (r->req.resume && r->req.checkpoint_path.empty()) {
    invalid = "resume requires a non-empty checkpoint_path";
  } else if (static_cast<std::uint8_t>(r->req.priority) >= Impl::kClasses) {
    invalid = "priority must be high, normal or batch (got " +
              std::to_string(static_cast<unsigned>(r->req.priority)) + ")";
  } else if (r->req.deadline.count() < 0) {
    invalid = "deadline must be >= 0 (got " +
              std::to_string(r->req.deadline.count()) + " ns)";
  } else if (r->req.checkpoint_every == 0) {
    invalid = "checkpoint_every must be >= 1 (got 0)";
  } else {
    try {
      validate_campaign_options(r->req.options);
    } catch (const std::exception& e) {
      invalid = e.what();
    }
    // Every fault against the geometry: a fault the memory cannot hold
    // fails the request here, before any batch runs, and not as a
    // batch failure that each retry would repeat.
    for (std::size_t i = 0; invalid.empty() && i < r->req.universe.size();
         ++i) {
      try {
        mem::validate_fault(r->req.universe[i], r->req.options.n,
                            r->req.options.m);
      } catch (const std::exception& e) {
        invalid = "universe fault " + std::to_string(i) + ": " + e.what();
      }
    }
  }
  if (!invalid.empty()) {
    // Still private to this thread; locked for the analysis' sake.
    util::MutexLock lock(r->mu);
    r->finished = true;
    r->outcome.status = RequestStatus::kFailed;
    r->outcome.error = std::move(invalid);
    ++impl_->failed;
    return Ticket(std::move(r));
  }

  std::string reject;
  {
    util::MutexLock lock(impl_->mu);
    const auto cls = static_cast<std::size_t>(r->req.priority);
    // The deadline clock starts at admission: queueing time counts
    // against the request's budget.
    if (r->req.deadline.count() > 0) {
      r->job.stop.set_deadline_after(r->req.deadline);
    }
    ++impl_->unresolved;
    impl_->queues[cls].push_back(r);
    impl_->dispatch_locked();
    // Backpressure: if the request is still waiting past its class
    // bound after the dispatch pass, revoke the admission.  (Checked
    // after dispatch, not before, so a free running slot always
    // admits — even with a zero bound.)
    auto& queue = impl_->queues[cls];
    if (!queue.empty() && queue.back() == r &&
        queue.size() > impl_->queue_bound(r->req.priority)) {
      queue.pop_back();
      --impl_->unresolved;
      impl_->all_done.notify_all();
      reject = "admission queue for class " + to_string(r->req.priority) +
               " is full (bound " +
               std::to_string(impl_->queue_bound(r->req.priority)) +
               ", running " + std::to_string(impl_->running) + "/" +
               std::to_string(impl_->options.max_running) + ")";
    }
  }
  if (!reject.empty()) {
    // Revoked before anyone else saw it — private again, locked for
    // the analysis' sake.
    util::MutexLock lock(r->mu);
    r->finished = true;
    r->outcome.status = RequestStatus::kRejected;
    r->outcome.error = std::move(reject);
    ++impl_->rejected;
    return Ticket(std::move(r));
  }
  ++impl_->accepted;
  return Ticket(std::move(r));
}

void CampaignService::wait_all() {
  util::MutexLock lock(impl_->mu);
  while (impl_->unresolved != 0) impl_->all_done.wait(lock);
}

CampaignService::Stats CampaignService::stats() const {
  Stats s;
  s.accepted = impl_->accepted.load();
  s.rejected = impl_->rejected.load();
  s.shedded = impl_->shedded.load();
  s.completed = impl_->completed.load();
  s.partial = impl_->partial.load();
  s.failed = impl_->failed.load();
  s.shard_retries = impl_->shard_retries.load();
  s.checkpoint_writes = impl_->checkpoint_writes.load();
  s.checkpoint_failures = impl_->checkpoint_failures.load();
  s.checkpoint_salvaged = impl_->checkpoint_salvaged.load();
  s.shards_resumed = impl_->shards_resumed.load();
  {
    util::MutexLock lock(impl_->mu);
    s.queued_high = impl_->queues[0].size();
    s.queued_normal = impl_->queues[1].size();
    s.queued_batch = impl_->queues[2].size();
    s.running = impl_->running;
  }
  const OracleCache::Stats cache = OracleCache::global().stats();
  s.cache_hits = cache.hits;
  s.cache_misses = cache.misses;
  s.cache_evictions = cache.evictions;
  s.cache_entries = cache.entries;
  s.cache_bytes = cache.bytes;
  return s;
}

}  // namespace prt::analysis
