#include "analysis/campaign_shard.hpp"

#include <algorithm>
#include <utility>

namespace prt::analysis::detail {

namespace {

std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace

std::size_t Job::adopt(BatchResults batches) {
  util::MutexLock lock(mu_);
  results_ = std::move(batches);
  for (const std::optional<CampaignResult>& batch : results_) {
    if (batch) ++resumed_;
  }
  return done_ = resumed_;
}

void Job::start(util::ThreadPool& pool, const std::shared_ptr<Job>& job) {
  job->pool_ = &pool;
  if (!job->prepare) {
    launch(job, /*run_first=*/false);
    return;
  }
  pool.submit(
      [job] {
        if (!job->stop.stop_requested()) {
          job->prepare(*job);
          // The first batch runs on this worker, so a one-batch job
          // crosses the FIFO once, not twice.
          launch(job, /*run_first=*/true);
        } else {
          complete(job);
        }
      },
      [job](std::exception_ptr error) {
        {
          Job& j = *job;
          util::MutexLock lock(j.mu_);
          j.error_text_ = describe(error);
          j.error_ = std::move(error);
        }
        complete(job);
      });
}

std::size_t Job::next_pending_locked() {
  while (next_ < results_.size() && results_[next_]) ++next_;
  return next_ < results_.size() ? next_++ : results_.size();
}

void Job::launch(const std::shared_ptr<Job>& job, bool run_first) noexcept {
  Job& j = *job;
  util::MutexLock lock(j.mu_);
  const std::size_t nbatches = batch_count(j.size);
  j.results_.resize(nbatches);
  j.attempts_.assign(nbatches, 0);
  // A job stopped before its batches start runs none of them.
  j.launched_ = j.done_ == nbatches || !j.stop.stop_requested();
  std::size_t first = nbatches;
  // One wave: a batch per worker.  Every batch of the wave is counted
  // before the lock drops, so none resolves before the wave is whole.
  for (unsigned w = 0; j.launched_ && w < j.pool_->workers(); ++w) {
    const std::size_t b = j.next_pending_locked();
    if (b == nbatches) break;
    ++j.outstanding_;
    if (run_first && first == nbatches) {
      first = b;
    } else {
      submit_batch(job, b);
    }
  }
  const bool idle = j.outstanding_ == 0;
  lock.Unlock();
  if (idle) {
    complete(job);
  } else if (first != nbatches) {
    run_batch(job, first);
  }
}

void Job::run_batch(const std::shared_ptr<Job>& job, std::size_t b) noexcept {
  const std::size_t begin = b * kSchedulerBatch;
  const std::size_t end = std::min(begin + kSchedulerBatch, job->size);
  CampaignResult out;
  bool completed = false;
  std::exception_ptr error;
  try {
    completed = job->run(begin, end, out, job->stop.token());
  } catch (...) {
    error = std::current_exception();
  }
  finish_attempt(job, b, completed ? &out : nullptr, std::move(error));
}

void Job::submit_batch(const std::shared_ptr<Job>& job,
                       std::size_t b) noexcept {
  job->pool_->submit(
      [job, b] { run_batch(job, b); },
      // A task the pool lost before running it is a failed attempt.
      [job, b](std::exception_ptr lost) {
        finish_attempt(job, b, nullptr, std::move(lost));
      });
}

void Job::finish_attempt(const std::shared_ptr<Job>& job, std::size_t b,
                         CampaignResult* out,
                         std::exception_ptr error) noexcept {
  Job& j = *job;
  {
    util::MutexLock lock(j.mu_);
    if (error) {
      const int attempts = ++j.attempts_[b];
      if (!j.error_ && !j.stop.stop_requested() &&
          attempts <= j.max_retries) {
        ++j.retries_;
        lock.Unlock();
        // Resubmit instead of looping in place: the retry goes to the
        // back of the FIFO, so one flaky batch cannot starve the other
        // jobs' batches queued behind it.
        submit_batch(job, b);
        return;  // outstanding unchanged — the retry owns the slot
      }
      if (!j.error_) {
        j.error_text_ = "shard " + std::to_string(b) + " failed after " +
                        std::to_string(attempts) +
                        " attempt(s): " + describe(error);
        j.error_ = std::move(error);
        j.stop.request_stop();  // wind the other batches down
      }
    } else if (out != nullptr) {
      j.results_[b] = std::move(*out);
      ++j.done_;
      if (j.checkpoint && j.done_ < j.results_.size() &&
          ++j.since_checkpoint_ >= j.checkpoint_every) {
        j.since_checkpoint_ = 0;
        j.checkpoint(j.results_);
      }
    }
    // else: the attempt observed the stop and abandoned — its partial
    // tallies are discarded, the slot stays empty.
    //
    // The next pending batch takes the slot and goes to the back of
    // the FIFO.  After a stop (a cancel, the deadline or a failure) no
    // batch is handed out any more; those never handed out stay empty.
    if (!j.stop.stop_requested()) {
      const std::size_t next = j.next_pending_locked();
      if (next != j.results_.size()) {
        lock.Unlock();
        submit_batch(job, next);
        return;  // outstanding unchanged — the next batch owns the slot
      }
    }
    if (--j.outstanding_ != 0) return;
  }
  complete(job);
}

void Job::complete(const std::shared_ptr<Job>& job) noexcept {
  Job& j = *job;
  JobOutcome out;
  {
    util::MutexLock lock(j.mu_);
    const std::size_t nbatches = batch_count(j.size);
    // Final flush, so an interrupted job resumes from its last
    // completed batch rather than its last cadence point.
    if (j.checkpoint && j.done_ > 0 && j.done_ < nbatches) {
      j.checkpoint(j.results_);
    }
    std::vector<CampaignResult> completed;
    completed.reserve(j.done_);
    for (std::optional<CampaignResult>& batch : j.results_) {
      if (batch) completed.push_back(std::move(*batch));
    }
    out.run.result = merge_results(completed);
    out.run.shards_done = completed.size();
    out.run.shards_total = nbatches;
    out.run.status = j.launched_ && completed.size() == nbatches
                         ? RunStatus::kComplete
                         : status_from(j.stop.token().reason());
    out.resumed = j.resumed_;
    out.retries = j.retries_;
    // Moved, not shared: a worker may still hold the job after the
    // caller's wait returns, and the thread that rethrows must hold the
    // exception's last reference.
    out.exception = std::move(j.error_);
    out.error = j.error_text_;
  }
  if (j.on_done) j.on_done(std::move(out));
}

std::vector<CampaignOutcome> run_jobs(
    unsigned workers, const std::vector<std::shared_ptr<Job>>& jobs) {
  std::vector<CampaignOutcome> outcomes(jobs.size());
  util::Latch latch(jobs.size());
  util::ThreadPool& pool = util::shared_pool(workers);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i]->on_done = [&outcomes, &latch, i](JobOutcome done) {
      outcomes[i] = std::move(done.run);
      latch.count_down(std::move(done.exception));
    };
    Job::start(pool, jobs[i]);
  }
  latch.wait_and_rethrow();
  return outcomes;
}

}  // namespace prt::analysis::detail
