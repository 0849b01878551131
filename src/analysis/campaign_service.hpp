// Long-lived campaign execution service.
//
// CampaignEngine / MarchCampaign / CampaignSuite are synchronous: the
// caller blocks for the whole campaign and an interrupted process
// loses everything.  CampaignService is the async, fault-tolerant
// layer in front of the same campaign executor (campaign_shard.hpp):
//
//  * requests (a PRT scheme or March test + options + universe) are
//    admitted into per-class (high / normal / batch) bounded queues —
//    a submission past its class bound is rejected immediately with
//    kRejected instead of queueing without bound.  Dispatch drains
//    strictly by class, FIFO within a class, with a bounded running
//    window (max_running); a dispatched request becomes one executor
//    job on the process-wide pool.  A request whose deadline expired
//    while it was queued resolves kShedded at dispatch, before any
//    oracle work is spent on it;
//  * a shard is one fixed 2048-fault batch at every worker count, so a
//    request over N faults has ceil(N / 2048) shards;
//  * cancel() and the per-request deadline stop the batch loops at the
//    next fault boundary, and the request resolves to a *partial*
//    outcome — the exact merge of the batches that completed
//    (kPartialCancelled / kPartialDeadline), never a torn result;
//  * every `checkpoint_every` completed batches the service durably
//    rewrites a version-headered, per-record CRC32-guarded checkpoint
//    (fingerprint + per-batch results; format v3, DESIGN.md
//    §13/§16/§20).
//    A resumed request re-validates the fingerprint — workload
//    structure, geometry, run options and the universe itself — at any
//    worker count, and its final result is bit-identical to an
//    uninterrupted run.  A torn or corrupted checkpoint is *salvaged*:
//    the longest prefix of records that pass their CRC and are
//    consistent with their batch is adopted and the rest recomputed
//    (stats().checkpoint_salvaged); only a fingerprint mismatch
//    hard-fails the request;
//  * a batch attempt that throws, or whose pool task is lost, is
//    retried up to `max_retries` times; exhaustion — or a lost setup
//    task — fails that request (kFailed, error preserved) without
//    touching other requests or the pool.  util::FailPoint hooks in
//    the pool, the oracle cache, the batch attempts and the checkpoint
//    writer let tests drive each of these paths deterministically.
//
// See DESIGN.md §11/§13/§16/§24 and tests/test_campaign_service.cpp,
// tests/test_checkpoint_recovery.cpp.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/fault_sim.hpp"
#include "core/prt_engine.hpp"
#include "march/march_runner.hpp"

namespace prt::analysis {

namespace detail {
struct ServiceRequest;
}  // namespace detail

/// Admission class of a request.  Dispatch drains high before normal
/// before batch, FIFO within a class; each class has its own queue
/// bound in ServiceOptions.
enum class RequestPriority : std::uint8_t {
  kHigh = 0,
  kNormal = 1,
  kBatch = 2,
};

[[nodiscard]] std::string to_string(RequestPriority priority);

/// The constructor throws std::invalid_argument, naming the value, on
/// max_running == 0 or a negative max_retries.
struct ServiceOptions {
  /// Worker count: the service runs on util::shared_pool(threads); 0
  /// means the hardware concurrency (util::default_worker_count).
  unsigned threads = 0;
  /// Dispatch window (>= 1): requests set up or running concurrently.
  /// Further admitted requests wait in their class queue.
  std::size_t max_running = 8;
  /// Per-class admission bounds: a submission while its class queue
  /// already holds this many waiting requests is rejected with
  /// kRejected.  0 means "no queueing" — reject whenever the running
  /// window is full.
  std::size_t queue_bound_high = 16;
  std::size_t queue_bound_normal = 32;
  std::size_t queue_bound_batch = 64;
  /// Retries per shard (batch) before the request fails (>= 0).
  int max_retries = 2;
  /// If nonzero, applied to OracleCache::global()'s byte budget at
  /// service construction (the cache is process-wide, so the last
  /// constructed service wins).  0 leaves the budget untouched.
  std::size_t cache_budget_bytes = 0;
};

/// How a service request resolved.
enum class RequestStatus : std::uint8_t {
  /// Every shard ran; result is bit-identical to a synchronous run.
  kComplete,
  /// cancel() stopped the run; result covers the completed shards.
  kPartialCancelled,
  /// The deadline stopped the run; result covers the completed shards.
  kPartialDeadline,
  /// Setup failed or a shard exhausted its retries; see `error`.
  kFailed,
  /// Rejected at admission (class queue bound); no work was done.
  kRejected,
  /// Shed at dispatch: the deadline expired while the request was
  /// queued, so no work was started.  Distinct from kPartialDeadline —
  /// a shed request burned no pool time.
  kShedded,
};

[[nodiscard]] std::string to_string(RequestStatus status);

/// One campaign request.  Exactly one of `scheme` / `march_test` must
/// be set.  The universe is owned by the request (the service runs it
/// asynchronously after submit() returns) and runs as fixed 2048-fault
/// shards (batches), whatever the worker count.
struct CampaignRequest {
  std::optional<core::PrtScheme> scheme;
  std::optional<march::MarchTest> march_test;
  CampaignOptions options;
  /// Same semantics as EngineOptions::early_abort (the worker count is
  /// the service's).
  bool early_abort = false;
  std::vector<mem::Fault> universe;
  /// Admission class; see RequestPriority.
  RequestPriority priority = RequestPriority::kNormal;
  /// Checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Completed shards between checkpoint rewrites (>= 1; 0 fails the
  /// request at submit).  A final
  /// checkpoint is always flushed when a checkpointed request ends
  /// incomplete, so cancel-then-resume loses nothing.
  std::size_t checkpoint_every = 1;
  /// Load `checkpoint_path` and skip its completed shards.  A missing
  /// checkpoint file means a fresh run; a torn or corrupted one is
  /// salvaged (longest valid record prefix, rest recomputed); a
  /// checkpoint whose fingerprint does not match this request fails it
  /// (kFailed) rather than silently merging results from a different
  /// campaign.
  bool resume = false;
  /// Wall-clock budget measured from submit(); zero = none, negative
  /// fails the request at submit, and one past the clock's range
  /// (nanoseconds::max()) never expires.  Queued time counts against
  /// it: a request whose deadline expires before dispatch resolves
  /// kShedded.
  std::chrono::nanoseconds deadline{0};
};

/// Resolved outcome of one request.  A shard is one fixed 2048-fault
/// batch: shards_total is ceil(universe size / 2048) at every worker
/// count (0 for an empty universe or a shed request).
struct RequestOutcome {
  RequestStatus status = RequestStatus::kFailed;
  /// Exact merge of the completed shards (all of them on kComplete).
  CampaignResult result;
  std::size_t shards_done = 0;
  std::size_t shards_total = 0;
  /// Shards whose results were adopted from the checkpoint.
  std::size_t shards_resumed = 0;
  /// Human-readable failure cause (kFailed / kRejected / kShedded).
  std::string error;
};

class CampaignService {
 public:
  /// Throws std::invalid_argument on malformed options (ServiceOptions).
  explicit CampaignService(const ServiceOptions& options = {});
  /// Blocks until every admitted request has resolved.
  ~CampaignService();
  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  class Ticket {
   public:
    /// A default ticket holds no request: done() is true, cancel() is
    /// a no-op and wait() throws std::logic_error.
    Ticket() = default;
    /// Blocks until the request resolves; idempotent.  On an lvalue
    /// ticket the reference is valid for the ticket's lifetime; on a
    /// temporary ticket (`service.submit(...).wait()`) the outcome is
    /// returned by value so it outlives the ticket.
    [[nodiscard]] const RequestOutcome& wait() const&;
    [[nodiscard]] RequestOutcome wait() &&;
    /// True once the outcome is available (wait() will not block).
    [[nodiscard]] bool done() const;
    /// Requests cooperative cancellation; shard loops stop at the next
    /// fault boundary (a still-queued request resolves partial with no
    /// shards run).  No-op once the request resolved.
    void cancel() const;

   private:
    friend class CampaignService;
    explicit Ticket(std::shared_ptr<detail::ServiceRequest> request);
    std::shared_ptr<detail::ServiceRequest> request_;
  };

  /// Validates and admits a request.  Never blocks on campaign work:
  /// past the class queue bound (or on a malformed request — a fault
  /// mem::validate_fault rejects for the request's n x m memory
  /// included, named with its universe index) the returned ticket is
  /// already resolved with kRejected / kFailed, no batch run.
  [[nodiscard]] Ticket submit(CampaignRequest request);

  /// Blocks until every request admitted so far has resolved.
  void wait_all();

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shedded = 0;
    std::uint64_t completed = 0;
    std::uint64_t partial = 0;
    std::uint64_t failed = 0;
    std::uint64_t shard_retries = 0;
    std::uint64_t checkpoint_writes = 0;
    std::uint64_t checkpoint_failures = 0;
    /// Resume loads that had to salvage a torn/corrupt checkpoint.
    std::uint64_t checkpoint_salvaged = 0;
    std::uint64_t shards_resumed = 0;
    /// Current queue depths / running window occupancy.
    std::uint64_t queued_high = 0;
    std::uint64_t queued_normal = 0;
    std::uint64_t queued_batch = 0;
    std::uint64_t running = 0;
    /// OracleCache::global() counters (process-wide — every service
    /// and engine in the process shares the cache).
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t cache_entries = 0;
    std::uint64_t cache_bytes = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace prt::analysis
