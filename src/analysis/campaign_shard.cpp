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
    launch(job);
    return;
  }
  pool.submit(
      [job] {
        if (!job->stop.stop_requested()) {
          job->prepare(*job);
          launch(job);
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

void Job::launch(const std::shared_ptr<Job>& job) noexcept {
  Job& j = *job;
  util::MutexLock lock(j.mu_);
  const std::size_t nbatches = batch_count(j.size);
  j.results_.resize(nbatches);
  j.attempts_.assign(nbatches, 0);
  // A job stopped before its batches start runs none of them.
  j.launched_ = j.done_ == nbatches || !j.stop.stop_requested();
  if (j.launched_) {
    for (std::size_t b = 0; b < nbatches; ++b) {
      if (!j.results_[b]) ++j.outstanding_;
    }
  }
  if (j.outstanding_ == 0) {
    lock.Unlock();
    complete(job);
    return;
  }
  // Submitted under the lock, so no batch resolves before every
  // pending one is counted.
  for (std::size_t b = 0; b < nbatches; ++b) {
    if (!j.results_[b]) submit_batch(job, b);
  }
}

void Job::submit_batch(const std::shared_ptr<Job>& job,
                       std::size_t b) noexcept {
  job->pool_->submit(
      [job, b] {
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
      },
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
