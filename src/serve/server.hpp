// Server — the overload-safe async serving front-end over the runtime.
//
// Everything below the runtime seam wants *big batches*: the SoA engines
// amortise the tape sweep over whole evidence vectors (docs/evaluation.md).
// Everything above it produces *single concurrent requests*.  The Server is
// the adapter, built robustness-first:
//
//   producers ──submit()──▶ bounded queue ──flush──▶ batch queue ──▶ workers
//                (backpressure,          (size, linger           (session
//                 overload admission)     or idle worker)         pools)
//
// * Bounded MPSC submission queue.  submit() never grows memory without
//   bound: a full queue either rejects with a typed response
//   (FullPolicy::kReject) or blocks the producer up to a timeout
//   (FullPolicy::kBlock) and then rejects.  The queue doubles as the
//   coalescing buffer, so "queue depth" is exactly the flush backlog.
//
// * Work-conserving coalescing.  A batch of up to batch_max is cut when a
//   worker is idle with no flushed batch waiting for it (by the submitting
//   thread, or by the worker itself before it sleeps), when batch_max
//   requests are pending, or when the oldest has waited flush_deadline.  So
//   a request lingers only while every worker is busy, and under load
//   batches grow back toward batch_max.  Requests whose own deadline
//   expires while queued are completed with a typed timeout and never
//   evaluated; the batcher walks the queue for them only when a lower
//   bound on the earliest queued deadline is due.
//
// * Worker session pools.  Each worker shard owns its InferenceSessions
//   (base tier + degraded tier, built once per thread), re-checks deadlines
//   after pickup, groups a batch by (query kind, query_var, tier), and runs
//   each group through the batched session API — escalation fallback,
//   per-query flags and provenance included.
//
// * Overload controller.  Admission-time policy (see serve/options.hpp):
//   past degrade_depth / degrade_p99 (the p99 the workers publish after
//   each group, one atomic load at admission), new requests are served on the
//   configured lower-precision rung and their responses carry the rung's
//   format and analytic error bound; past shed_depth they are shed with a
//   typed rejection.  Degradation is decided when a request is *admitted*,
//   so a burst's tail degrades while earlier requests keep full precision.
//
// * Deterministic shutdown.  shutdown(drain=true) stops admission, flushes
//   and evaluates everything queued (deadlines still honoured), joins all
//   threads; drain=false completes queued requests with typed shutdown
//   rejections instead (already-flushed batches still evaluate).  Either
//   way every request completes exactly once — under injected worker
//   faults too (stats().double_completions counts violations; it stays 0).
//
// Fault sites (util/fault_injection.hpp): serve.enqueue forces the
// queue-full rejection path, serve.flush fails a batch mid-flush (its
// requests complete with typed errors), serve.worker throws from a worker
// mid-evaluation (the group completes with typed errors, the worker
// survives).
//
// Thread-safety: submit(), stats() and shutdown() are safe from any thread.
// Completion (future ready / callback invoked) happens on server threads —
// callbacks must not call back into submit() of a server being destroyed.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "serve/options.hpp"
#include "serve/stats.hpp"
#include "serve/types.hpp"

namespace problp::serve {

class Server {
 public:
  /// Validates `options`, starts the batcher and worker threads.  Worker
  /// sessions are constructed inside their threads (engines are lazy, so
  /// startup is cheap until the first batch of each tier).
  Server(std::shared_ptr<const runtime::CompiledModel> model, ServerOptions options = {});

  /// shutdown(true) if the caller has not already shut down.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submits one request; the returned future becomes ready exactly once
  /// with the terminal Response.  Malformed requests (evidence size
  /// mismatch, bad query_var) throw InvalidArgument immediately — they
  /// never enter the queue.
  std::future<Response> submit(Request request);

  /// Callback flavour: `done` is invoked exactly once, on a server thread
  /// (or inline on the submitting thread for immediate rejections).
  void submit(Request request, std::function<void(Response)> done);

  /// Stops admission and joins every thread.  drain=true evaluates the
  /// backlog (per-request deadlines still honoured); drain=false completes
  /// queued-but-unflushed requests with kRejectedShutdown.  Idempotent;
  /// concurrent callers block until the first call finishes.
  void shutdown(bool drain = true);

  StatsSnapshot stats() const;

  const ServerOptions& options() const { return options_; }
  const std::shared_ptr<const runtime::CompiledModel>& model() const { return model_; }

 private:
  /// One queued request: the caller's Request plus its completion channel
  /// and admission-time stamps.  Owned by exactly one stage at a time
  /// (queue -> batch -> worker), completed exactly once.  Exactly one
  /// completion channel is engaged: the promise for the future flavour, the
  /// callback for the callback flavour — a std::promise allocates shared
  /// state and crosses a mutex on set_value, which is most of the serving
  /// stack's per-request cost, so the callback path never constructs one.
  struct Pending {
    Request request;
    std::optional<std::promise<Response>> promise;
    std::function<void(Response)> callback;
    util::Clock::TimePoint enqueued{};
    util::Clock::TimePoint deadline = util::Clock::TimePoint::max();
    util::Clock::TimePoint flushed{};  ///< set when it is cut into a batch
    Tier tier = Tier::kNormal;
    std::atomic<bool> completed{false};
  };
  using PendingPtr = std::unique_ptr<Pending>;
  using Batch = std::vector<PendingPtr>;

  /// Per-worker session pool: base tier always, degraded tier lazily on the
  /// first degraded batch (sessions are scratch-heavy; don't pay for a tier
  /// a shard never serves).
  struct WorkerSessions;

  std::future<Response> submit_internal(Request request, std::function<void(Response)> done);

  // ---- completion funnel (never called with mu_ held) ----------------------
  /// Sets the promise / invokes the callback exactly once; counts a
  /// double_completion instead of completing twice.
  void complete(PendingPtr pending, Response&& response);
  void complete_rejection(PendingPtr pending, Status status, const std::string& message);
  void complete_timeout(PendingPtr pending, bool after_flush);

  /// Why a batch was cut; each cause has its own flush counter.
  enum class FlushCause { kSize, kDeadline, kIdle };

  /// With mu_ held (via `lock`): cuts up to batch_max queued requests into
  /// a batch stamped `flushed = now` and dispatches it to the batch queue —
  /// or, when the serve.flush fault fires, completes every member with a
  /// typed error.  Briefly drops the lock to complete/notify; re-held on
  /// return.  Callers check queue_/batches_ preconditions.  Shared by the
  /// batcher, submit's inline cuts and the workers' idle cut, so flush
  /// semantics (counters, fault site, backpressure notifies) cannot drift
  /// between them.
  void flush_locked(std::unique_lock<std::mutex>& lock, util::Clock::TimePoint now,
                    FlushCause cause);

  /// With mu_ held: the instant the batcher next has work for the current
  /// state — TimePoint::min() when a flush is due and possible now.  While
  /// the batch queue is full only an expiry can be due; the worker that
  /// frees a slot re-plans.
  util::Clock::TimePoint batcher_due_locked() const;
  /// With mu_ held: marks the batcher awake if its plan has become earlier
  /// than the wake it sleeps towards.  Returns whether the caller must
  /// notify cv_batcher_ once it has dropped the lock.
  bool replan_batcher_locked();

  void batcher_main();
  void worker_main();
  void process_batch(WorkerSessions& sessions, Batch batch);
  /// Evaluates one homogeneous group of `batch` (same query/query_var/tier)
  /// and completes its members; on any exception the whole group completes
  /// with typed kError responses.
  void evaluate_group(WorkerSessions& sessions, Batch& batch,
                      const std::vector<std::size_t>& indices);

  /// Admission-time tier decision: queue depth plus the published p99.
  Tier admission_tier(std::size_t depth) const;

  std::shared_ptr<const runtime::CompiledModel> model_;
  ServerOptions options_;
  std::shared_ptr<util::Clock> clock_;
  std::size_t max_pending_batches_;

  mutable std::mutex mu_;
  std::deque<PendingPtr> queue_;  ///< the bounded MPSC submission/coalescing buffer
  /// Lower bound on the earliest deadline in queue_ (max = none queued):
  /// lowered on every push, made exact by each expiry sweep, reset when the
  /// queue empties.
  util::Clock::TimePoint deadline_bound_ = util::Clock::TimePoint::max();
  std::deque<Batch> batches_;    ///< flushed, awaiting a worker (bounded)
  std::size_t idle_workers_ = 0;  ///< workers waiting on cv_work_
  /// When the sleeping batcher wakes on its own; TimePoint::min() while it
  /// is awake (it re-plans under mu_ before sleeping again).
  util::Clock::TimePoint batcher_wake_ = util::Clock::TimePoint::min();
  bool stopping_ = false;
  bool drain_ = true;
  bool batcher_done_ = false;
  std::condition_variable cv_batcher_;   ///< queue state changed
  std::condition_variable cv_not_full_;  ///< space freed (blocked producers)
  std::condition_variable cv_work_;      ///< batch queue state changed

  std::mutex shutdown_mu_;  ///< serialises shutdown(); taken before joins
  bool joined_ = false;

  Counters counters_;
  LatencyWindow latency_;

  std::thread batcher_;
  std::vector<std::thread> workers_;
};

}  // namespace problp::serve
