#include "serve/server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/fault_injection.hpp"
#include "util/strings.hpp"

namespace problp::serve {

namespace {

bool same_repr(const Representation& a, const Representation& b) {
  if (a.kind != b.kind) return false;
  return a.kind == Representation::Kind::kFixed ? a.fixed == b.fixed : a.flt == b.flt;
}

}  // namespace

// Per-worker session pool: the base tier is built with the thread (engines
// inside are lazy), the degraded tier only when this shard first serves a
// degraded batch.
struct Server::WorkerSessions {
  Server& server;
  runtime::InferenceSession base;
  std::optional<runtime::InferenceSession> degraded;

  explicit WorkerSessions(Server& s) : server(s), base(s.model_, s.options_.session) {}

  runtime::InferenceSession& for_tier(Tier tier) {
    if (tier == Tier::kDegraded && server.options_.overload.degraded) {
      if (!degraded) {
        const DegradedTier& d = *server.options_.overload.degraded;
        runtime::SessionOptions opts = runtime::SessionOptions::low_precision(d.repr, d.rounding);
        opts.batch = server.options_.session.batch;
        degraded.emplace(server.model_, opts);
      }
      return *degraded;
    }
    return base;
  }
};

Server::Server(std::shared_ptr<const runtime::CompiledModel> model, ServerOptions options)
    : model_(std::move(model)), options_(std::move(options)) {
  require(model_ != nullptr, "serve: Server: null model");
  options_.validate();
  clock_ = options_.clock ? options_.clock : util::Clock::steady();
  max_pending_batches_ = options_.max_pending_batches == 0
                             ? 2 * static_cast<std::size_t>(options_.workers)
                             : options_.max_pending_batches;
  // Surface session misconfiguration on the constructing thread, not as an
  // exception escaping a worker thread minutes later: build (and discard) a
  // probe session per tier.  Sessions are scratch-only until their first
  // query, so this is cheap.
  { runtime::InferenceSession probe(model_, options_.session); }
  if (options_.overload.degraded) {
    const DegradedTier& d = *options_.overload.degraded;
    runtime::SessionOptions opts = runtime::SessionOptions::low_precision(d.repr, d.rounding);
    opts.batch = options_.session.batch;
    runtime::InferenceSession probe(model_, opts);
  }
  batcher_ = std::thread([this] { batcher_main(); });
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

Server::~Server() { shutdown(true); }

// ---- admission -------------------------------------------------------------

std::future<Response> Server::submit(Request request) {
  return submit_internal(std::move(request), nullptr);
}

void Server::submit(Request request, std::function<void(Response)> done) {
  require(done != nullptr, "serve: submit: null completion callback");
  submit_internal(std::move(request), std::move(done));
}

Tier Server::admission_tier(std::size_t depth) const {
  const OverloadPolicy& policy = options_.overload;
  if (!policy.degraded) return Tier::kNormal;
  if (depth >= policy.degrade_depth) return Tier::kDegraded;
  if (policy.degrade_p99 && latency_.p99() > *policy.degrade_p99) return Tier::kDegraded;
  return Tier::kNormal;
}

std::future<Response> Server::submit_internal(Request request,
                                              std::function<void(Response)> done) {
  // Malformed requests are caller bugs, not load conditions: they throw
  // here, synchronously, and never occupy queue space.  Messages are
  // formatted only on failure — str_format on the submit hot path would
  // cost more than the rest of admission combined.
  if (request.evidence.size() != static_cast<std::size_t>(model_->num_variables())) {
    throw InvalidArgument(str_format("serve: request evidence size: found %zu, expected %d",
                                     request.evidence.size(), model_->num_variables()));
  }
  if (request.query == errormodel::QueryType::kConditional) {
    if (request.query_var < 0 || request.query_var >= model_->num_variables()) {
      throw InvalidArgument(
          str_format("serve: conditional request query_var: found %d, expected in [0, %d)",
                     request.query_var, model_->num_variables()));
    }
    require(!request.evidence[static_cast<std::size_t>(request.query_var)].has_value(),
            "serve: conditional request: query_var must be unobserved in the evidence");
  }

  auto pending = std::make_unique<Pending>();
  pending->request = std::move(request);
  pending->callback = std::move(done);
  std::future<Response> future;
  if (!pending->callback) future = pending->promise.emplace().get_future();
  ++counters_.submitted;

  std::unique_lock<std::mutex> lock(mu_);
  util::Clock::TimePoint now = clock_->now();
  pending->enqueued = now;
  if (pending->request.timeout) pending->deadline = now + *pending->request.timeout;

  if (stopping_) {
    lock.unlock();
    complete_rejection(std::move(pending), Status::kRejectedShutdown,
                       "serve: server is shutting down");
    return future;
  }
  // serve.enqueue forces the queue-full rejection path — the same typed
  // completion a physically full queue produces under FullPolicy::kReject.
  if (util::fault_point("serve.enqueue")) {
    lock.unlock();
    complete_rejection(std::move(pending), Status::kRejectedQueueFull,
                       "serve: injected fault at serve.enqueue — submission queue full");
    return future;
  }
  if (queue_.size() >= options_.overload.shed_depth) {
    const std::size_t depth = queue_.size();
    lock.unlock();
    complete_rejection(std::move(pending), Status::kRejectedOverload,
                       str_format("serve: overload shed — queue depth %zu >= shed threshold %zu",
                                  depth, options_.overload.shed_depth));
    return future;
  }
  if (queue_.size() >= options_.capacity) {
    if (options_.full_policy == ServerOptions::FullPolicy::kReject) {
      lock.unlock();
      complete_rejection(std::move(pending), Status::kRejectedQueueFull,
                         str_format("serve: submission queue full (capacity %zu)",
                                    options_.capacity));
      return future;
    }
    // Block-with-timeout backpressure: the producer waits for space, but
    // never forever — a stalled pipeline turns into a typed rejection, not
    // a wedged client.
    const util::Clock::TimePoint block_deadline = now + options_.block_timeout;
    ++counters_.producers_blocked;
    while (queue_.size() >= options_.capacity && !stopping_ &&
           clock_->now() < block_deadline) {
      clock_->wait_until(cv_not_full_, lock, block_deadline);
    }
    --counters_.producers_blocked;
    now = clock_->now();  // a cut below must not be stamped before the wait
    if (stopping_) {
      lock.unlock();
      complete_rejection(std::move(pending), Status::kRejectedShutdown,
                         "serve: server shut down while blocked on a full queue");
      return future;
    }
    if (queue_.size() >= options_.capacity) {
      lock.unlock();
      complete_rejection(
          std::move(pending), Status::kRejectedQueueFull,
          str_format("serve: submission queue still full after block timeout (capacity %zu)",
                     options_.capacity));
      return future;
    }
  }
  pending->tier = admission_tier(queue_.size());
  if (pending->tier == Tier::kDegraded) ++counters_.degraded_admitted;
  deadline_bound_ = std::min(deadline_bound_, pending->deadline);
  queue_.push_back(std::move(pending));
  // Cuts happen right here on the submitting thread, through the batcher's
  // own flush_locked: a size cut once batch_max requests are pending, and a
  // work-conserving cut whenever more workers are idle than flushed batches
  // wait for them — a request never lingers for a batch to fill while a
  // worker could be serving it.  Routing either through the batcher would
  // cost a futex wake plus two context switches per batch.  With the batch
  // queue full the cut is left to the batcher (the worker that frees a slot
  // wakes it), so backpressure behaves identically.
  if (batches_.size() < max_pending_batches_) {
    if (queue_.size() >= options_.batch_max) {
      flush_locked(lock, now, FlushCause::kSize);
    } else if (idle_workers_ > batches_.size()) {
      flush_locked(lock, now, FlushCause::kIdle);
    }
  }
  // Wake the batcher only when its plan changes: a first queued request
  // arms the linger timer, a deadline may be earlier than the wake it
  // planned.  Every other submit would wake it just to re-sleep.
  const bool wake = replan_batcher_locked();
  lock.unlock();
  if (wake) cv_batcher_.notify_one();
  return future;
}

// ---- completion funnel -----------------------------------------------------

void Server::complete(PendingPtr pending, Response&& response) {
  // Exactly-once: the first completion wins; a second is counted as the bug
  // it would be (the drain and stress tests assert this stays 0) and
  // dropped rather than crossing a std::promise twice.
  if (pending->completed.exchange(true)) {
    ++counters_.double_completions;
    return;
  }
  switch (response.status) {
    case Status::kOk:
      ++counters_.completed_ok;
      break;
    case Status::kTimeout:
      ++counters_.timed_out;
      break;
    case Status::kRejectedQueueFull:
      ++counters_.rejected_queue_full;
      break;
    case Status::kRejectedOverload:
      ++counters_.rejected_overload;
      break;
    case Status::kRejectedShutdown:
      ++counters_.rejected_shutdown;
      break;
    case Status::kError:
      ++counters_.errors;
      break;
  }
  // Exactly one channel is engaged (see Pending): the callback flavour
  // never pays the promise's shared-state allocation and set_value mutex.
  if (pending->callback) {
    std::function<void(Response)> callback = std::move(pending->callback);
    callback(std::move(response));
  } else {
    pending->promise->set_value(std::move(response));
  }
}

void Server::complete_rejection(PendingPtr pending, Status status, const std::string& message) {
  Response response;
  response.status = status;
  response.message = message;
  response.tier = pending->tier;
  const util::Clock::TimePoint now = clock_->now();
  response.queue_wait = now - pending->enqueued;
  response.latency = response.queue_wait;
  complete(std::move(pending), std::move(response));
}

void Server::complete_timeout(PendingPtr pending, bool after_flush) {
  if (after_flush) ++counters_.timed_out_after_flush;
  Response response;
  response.status = Status::kTimeout;
  response.message = after_flush
                         ? "serve: deadline exceeded after flush, before evaluation"
                         : "serve: deadline exceeded while queued";
  response.tier = pending->tier;
  const util::Clock::TimePoint now = clock_->now();
  response.queue_wait = now - pending->enqueued;
  response.latency = response.queue_wait;
  complete(std::move(pending), std::move(response));
}

// ---- batcher ---------------------------------------------------------------

void Server::flush_locked(std::unique_lock<std::mutex>& lock, util::Clock::TimePoint now,
                          FlushCause cause) {
  Batch batch;
  const std::size_t n = std::min(queue_.size(), options_.batch_max);
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    queue_.front()->flushed = now;
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  if (queue_.empty()) deadline_bound_ = util::Clock::TimePoint::max();
  switch (cause) {
    case FlushCause::kSize:
      ++counters_.flushes_by_size;
      break;
    case FlushCause::kDeadline:
      ++counters_.flushes_by_deadline;
      break;
    case FlushCause::kIdle:
      ++counters_.flushes_idle;
      break;
  }
  if (util::fault_point("serve.flush")) {
    // A failed dispatch must still complete every member exactly once —
    // the real mid-flush error path, driven deterministically.
    lock.unlock();
    for (PendingPtr& p : batch) {
      complete_rejection(std::move(p), Status::kError,
                         "serve: injected fault at serve.flush — batch dispatch failed");
    }
    cv_not_full_.notify_all();
    lock.lock();
    return;
  }
  batches_.push_back(std::move(batch));
  lock.unlock();
  cv_work_.notify_one();
  cv_not_full_.notify_all();
  lock.lock();
}

util::Clock::TimePoint Server::batcher_due_locked() const {
  if (queue_.empty()) return util::Clock::TimePoint::max();
  if (batches_.size() >= max_pending_batches_) return deadline_bound_;
  const bool flush_now = queue_.size() >= options_.batch_max || (stopping_ && drain_);
  return std::min(flush_now ? util::Clock::TimePoint::min()
                            : queue_.front()->enqueued + options_.flush_deadline,
                  deadline_bound_);
}

bool Server::replan_batcher_locked() {
  if (batcher_due_locked() >= batcher_wake_) return false;
  batcher_wake_ = util::Clock::TimePoint::min();
  return true;
}

void Server::batcher_main() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const util::Clock::TimePoint now = clock_->now();

    // Expired requests leave the queue as typed timeouts — before any flush
    // decision, so an expired request is never silently evaluated.  The
    // sweep is O(depth), so it runs only once the lower bound on the
    // earliest queued deadline is due, and leaves that bound exact.
    if (deadline_bound_ <= now) {
      ++counters_.deadline_sweeps;
      std::vector<PendingPtr> expired;
      util::Clock::TimePoint earliest = util::Clock::TimePoint::max();
      auto kept = queue_.begin();
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if ((*it)->deadline <= now) {
          expired.push_back(std::move(*it));
        } else {
          earliest = std::min(earliest, (*it)->deadline);
          if (kept != it) *kept = std::move(*it);
          ++kept;
        }
      }
      queue_.erase(kept, queue_.end());
      deadline_bound_ = earliest;
      if (!expired.empty()) {
        lock.unlock();
        for (PendingPtr& p : expired) complete_timeout(std::move(p), false);
        cv_not_full_.notify_all();
        lock.lock();
        continue;
      }
    }

    // Size and linger flushes; with the batch queue full they wait for a
    // worker to free a slot, so the submission queue fills and backpressure
    // reaches producers instead of batches piling up.
    if (!queue_.empty() && batches_.size() < max_pending_batches_) {
      if (queue_.size() >= options_.batch_max) {
        flush_locked(lock, now, FlushCause::kSize);
        continue;
      }
      // drain: flush the backlog without waiting for the linger
      if ((stopping_ && drain_) || now - queue_.front()->enqueued >= options_.flush_deadline) {
        flush_locked(lock, now, FlushCause::kDeadline);
        continue;
      }
    }

    if (stopping_ && queue_.empty()) break;

    // Sleep until the earliest actionable instant: the oldest request's
    // linger deadline or the deadline bound, whichever is sooner — or, while
    // stalled on a full batch queue, the bound alone, so a queued request
    // still expires on time while the workers are behind.
    batcher_wake_ = batcher_due_locked();
    clock_->wait_until(cv_batcher_, lock, batcher_wake_);
    batcher_wake_ = util::Clock::TimePoint::min();
  }
  batcher_done_ = true;
  lock.unlock();
  cv_work_.notify_all();
}

// ---- workers ---------------------------------------------------------------

void Server::worker_main() {
  WorkerSessions sessions(*this);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (batches_.empty()) {
      if (!queue_.empty()) {
        // Work-conserving: an idle worker takes what is queued now rather
        // than sleep while it waits for a size or linger flush.
        flush_locked(lock, clock_->now(), FlushCause::kIdle);
        continue;
      }
      if (batcher_done_) break;  // batcher finished and the backlog is served
      ++idle_workers_;
      cv_work_.wait(lock);
      --idle_workers_;
      continue;
    }
    Batch batch = std::move(batches_.front());
    batches_.pop_front();
    const bool wake = replan_batcher_locked();  // a freed slot may unstall it
    lock.unlock();
    if (wake) cv_batcher_.notify_one();
    process_batch(sessions, std::move(batch));
    lock.lock();
  }
}

void Server::process_batch(WorkerSessions& sessions, Batch batch) {
  if (options_.test_worker_hook) options_.test_worker_hook();
  // Deadlines are re-checked after pickup: a request that expired between
  // flush and evaluation is a typed timeout, not a stale answer.
  const util::Clock::TimePoint now = clock_->now();
  for (PendingPtr& p : batch) {
    if (p->deadline <= now) complete_timeout(std::move(p), true);
  }
  // One batched session call per homogeneous group: batches are coalesced
  // across requests, so a flush can mix query kinds and tiers.  Groups are
  // found by linear scan — a saturated batch is almost always one group
  // (same query, same var, same tier), and the distinct-group count is tiny
  // even when it is not, so this stays allocation-light where a map would
  // pay a node per request.
  struct Group {
    int query;
    int query_var;
    int tier;
    std::vector<std::size_t> indices;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!batch[i]) continue;  // timed out above
    const Pending& p = *batch[i];
    const int query = static_cast<int>(p.request.query);
    const int tier = static_cast<int>(p.tier);
    Group* group = nullptr;
    for (Group& g : groups) {
      if (g.query == query && g.query_var == p.request.query_var && g.tier == tier) {
        group = &g;
        break;
      }
    }
    if (!group) {
      groups.push_back(Group{query, p.request.query_var, tier, {}});
      group = &groups.back();
      group->indices.reserve(batch.size());
    }
    group->indices.push_back(i);
  }
  if (groups.empty()) return;
  ++counters_.batches_evaluated;
  for (Group& g : groups) evaluate_group(sessions, batch, g.indices);
}

void Server::evaluate_group(WorkerSessions& sessions, Batch& batch,
                            const std::vector<std::size_t>& indices) {
  const Tier tier = batch[indices.front()]->tier;
  const errormodel::QueryType query = batch[indices.front()]->request.query;
  const int query_var = batch[indices.front()]->request.query_var;
  try {
    // serve.worker mirrors batch.worker: a *foreign* exception from the
    // serving thread's evaluation, driven deterministically.
    if (util::fault_point("serve.worker")) {
      throw std::runtime_error("injected fault: serve.worker evaluation failed");
    }
    runtime::InferenceSession& session = sessions.for_tier(tier);
    std::vector<ac::PartialAssignment> evidence;
    evidence.reserve(indices.size());
    for (const std::size_t i : indices) {
      evidence.push_back(std::move(batch[i]->request.evidence));
    }

    std::vector<double> values;
    std::vector<std::vector<double>> posteriors;
    if (query == errormodel::QueryType::kConditional) {
      posteriors = session.conditional(query_var, evidence);
    } else if (query == errormodel::QueryType::kMpe) {
      values = session.mpe(evidence);
    } else {
      values = session.marginal(evidence);
    }
    const std::vector<runtime::QueryProvenance>& provenance = session.last_provenance();

    const util::Clock::TimePoint done = clock_->now();
    // Latencies are recorded before any member completes: a client that
    // observes a completion may submit again immediately, and its admission
    // must see a published p99 that already includes the batch it just
    // waited on (the ManualClock p99-trigger test pins this ordering down).
    // Only the latency trigger reads the window, so without one it is not fed.
    std::vector<util::Clock::Duration> latencies;
    latencies.reserve(indices.size());
    for (const std::size_t i : indices) {
      latencies.push_back(done - batch[i]->enqueued);
    }
    if (options_.overload.degrade_p99) latency_.record_many(latencies);
    for (std::size_t j = 0; j < indices.size(); ++j) {
      PendingPtr pending = std::move(batch[indices[j]]);
      Response response;
      response.status = Status::kOk;
      if (query == errormodel::QueryType::kConditional) {
        response.posterior = std::move(posteriors[j]);
      } else {
        response.value = values[j];
      }
      response.tier = tier;
      const runtime::QueryProvenance& prov = provenance[j];
      response.served_format = prov.served_format;
      response.escalations = prov.escalations;
      response.flags = prov.flags;
      // The analytic bound travels with the format that licenses it: the
      // degraded rung's configured bound, or the base representation's.
      // An escalated answer served on some other rung carries no bound —
      // better none than a wrong one.
      if (response.served_format) {
        if (tier == Tier::kDegraded && options_.overload.degraded &&
            same_repr(*response.served_format, options_.overload.degraded->repr)) {
          response.error_bound = options_.overload.degraded->error_bound;
        } else if (options_.base_error_bound && options_.session.representation &&
                   same_repr(*response.served_format, *options_.session.representation)) {
          response.error_bound = options_.base_error_bound;
        }
      }
      response.queue_wait = pending->flushed - pending->enqueued;
      response.latency = latencies[j];
      complete(std::move(pending), std::move(response));
    }
  } catch (const std::exception& e) {
    // The whole group shares the failed sweep; each member still completes
    // exactly once, as a typed error, and the worker thread survives.
    for (const std::size_t i : indices) {
      if (!batch[i]) continue;
      complete_rejection(std::move(batch[i]), Status::kError,
                         str_format("serve: worker evaluation failed: %s", e.what()));
    }
  }
}

// ---- shutdown & stats ------------------------------------------------------

void Server::shutdown(bool drain) {
  std::vector<PendingPtr> cancelled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_) {
      stopping_ = true;
      drain_ = drain;
    }
    if (!drain_) {
      while (!queue_.empty()) {
        cancelled.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      deadline_bound_ = util::Clock::TimePoint::max();
    }
  }
  cv_batcher_.notify_all();
  cv_not_full_.notify_all();
  cv_work_.notify_all();
  for (PendingPtr& p : cancelled) {
    complete_rejection(std::move(p), Status::kRejectedShutdown,
                       "serve: server shut down before the request was flushed");
  }
  std::lock_guard<std::mutex> join_lock(shutdown_mu_);
  if (joined_) return;
  if (batcher_.joinable()) batcher_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  joined_ = true;
}

StatsSnapshot Server::stats() const {
  StatsSnapshot s;
  s.submitted = counters_.submitted.load();
  s.completed_ok = counters_.completed_ok.load();
  s.timed_out = counters_.timed_out.load();
  s.timed_out_after_flush = counters_.timed_out_after_flush.load();
  s.rejected_queue_full = counters_.rejected_queue_full.load();
  s.rejected_overload = counters_.rejected_overload.load();
  s.rejected_shutdown = counters_.rejected_shutdown.load();
  s.errors = counters_.errors.load();
  s.degraded_admitted = counters_.degraded_admitted.load();
  s.flushes_by_size = counters_.flushes_by_size.load();
  s.flushes_by_deadline = counters_.flushes_by_deadline.load();
  s.flushes_idle = counters_.flushes_idle.load();
  s.deadline_sweeps = counters_.deadline_sweeps.load();
  s.batches_evaluated = counters_.batches_evaluated.load();
  s.double_completions = counters_.double_completions.load();
  s.producers_blocked = counters_.producers_blocked.load();
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queue_depth = queue_.size();
  }
  return s;
}

}  // namespace problp::serve
