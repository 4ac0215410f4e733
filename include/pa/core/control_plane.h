#pragma once
/// \file control_plane.h
/// \brief Single-writer, event-driven command core for the service facade.
///
/// Every mutation of middleware state — submissions, runtime callbacks,
/// cancellations, timer-driven schedule passes — becomes a `Command` on a
/// bounded MPSC queue (pa::net::MpscQueue) drained by exactly one apply
/// context that owns the state lock-free. Producers never execute
/// middleware logic: a runtime callback costs one wait-free push. Reads
/// are served elsewhere from a snapshot the applier republishes at batch
/// end (see pilot_compute_service.h).
///
/// Two modes:
///  * **threaded** (LocalRuntime, RemoteRuntime): a dedicated apply
///    thread drains the queue; producers block only when the queue hits
///    its bound (backpressure) — except posts from the apply thread
///    itself (e.g. a synchronously-satisfied stage-in fired during
///    dispatch), which bypass the bound to stay deadlock-free.
///  * **inline** (SimRuntime and any `Runtime::single_threaded()`
///    substrate): `post` drains the queue on the posting thread before
///    returning, preserving bit-identical simulation determinism. A
///    reentrant post from inside a handler is appended and drained by the
///    outer drain loop.
///
/// Batching: the applier drains everything available, then invokes
/// `on_batch_end` once — the hook where the service coalesces schedule
/// passes and republishes its read snapshot. Waiters of `post_and_wait`
/// are released only *after* batch end, so a read that follows a
/// synchronous mutation observes it. In threaded mode the applier also
/// wakes on a timer tick (`idle_wait_seconds`) and runs `on_batch_end`,
/// which is what turns periodic schedule passes into ordinary apply-side
/// work instead of a separate timer thread racing the state.
///
/// Ordering: per-producer FIFO (inherited from MpscQueue). A fence posted
/// after a runtime's synchronous callback on the same thread therefore
/// flushes that callback — the service's cancel path relies on this.
///
/// Locking: one mutex at LockRank::kCtrlQueue guards only sleep/wake and
/// backpressure bookkeeping. It is never held across `apply`,
/// `on_batch_end`, or any callout, and nothing is acquired under it.
///
/// Error propagation: an exception thrown by `apply` is captured into the
/// command's envelope and rethrown to the `post_and_wait` caller —
/// preserving the facade's synchronous throwing API (NotFound,
/// InvalidArgument) across the thread hop. Exceptions of fire-and-forget
/// commands are logged and dropped; the apply thread never dies.

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/common/error.h"
#include "pa/common/log.h"
#include "pa/net/mpsc_queue.h"
#include "pa/obs/metrics.h"

namespace pa::core {

template <typename Command>
class ControlPlane {
 public:
  struct Options {
    /// Max commands in flight before producers block (threaded mode only;
    /// posts from the apply thread bypass the bound). 0 = unbounded.
    std::size_t bound = 8192;
    /// false = inline mode: post() drains on the posting thread.
    bool threaded = true;
    /// Clock for the ctrl.apply_latency histogram (e.g. Runtime::now);
    /// may be null (latency then unrecorded).
    std::function<double()> clock;
    /// Timer tick for the apply thread's idle wakeup (threaded mode).
    double idle_wait_seconds = 0.05;
  };

  using ApplyFn = std::function<void(Command&)>;
  using BatchEndFn = std::function<void()>;

  ControlPlane(ApplyFn apply, BatchEndFn on_batch_end, Options options)
      : apply_(std::move(apply)),
        batch_end_(std::move(on_batch_end)),
        options_(std::move(options)) {
    PA_REQUIRE_ARG(static_cast<bool>(apply_), "null apply function");
    if (options_.threaded) {
      consumer_ = std::thread([this]() { consume_loop(); });
    }
  }

  ~ControlPlane() { stop(); }

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Fire-and-forget. Returns false (command dropped) after stop().
  bool post(Command command) {
    return post_envelope(Envelope{std::move(command), now(), nullptr});
  }

  /// Posts and blocks until the command was applied *and* the batch it
  /// belonged to finished (snapshot republished). Rethrows any exception
  /// the handler threw. Returns false after stop().
  bool post_and_wait(Command command) {
    if (stopped_.load(std::memory_order_acquire)) {
      return false;
    }
    auto waiter = std::make_shared<Waiter>();
    if (options_.threaded &&
        std::this_thread::get_id() == applier_.load(std::memory_order_acquire)) {
      throw InvalidStateError(
          "post_and_wait from the apply thread would self-deadlock; "
          "apply-side code must post fire-and-forget commands");
    }
    if (!post_envelope(Envelope{std::move(command), now(), waiter})) {
      return false;
    }
    if (!options_.threaded) {
      // Inline mode drains synchronously — unless this post came from
      // inside a handler or batch-end callout (the outer drain owns the
      // queue), where waiting is impossible by construction.
      if (!waiter->done.load(std::memory_order_acquire)) {
        throw InvalidStateError(
            "synchronous control-plane call from inside a handler or "
            "observer; post fire-and-forget commands instead");
      }
    } else {
      check::MutexLock lock(mutex_);
      while (!waiter->done.load(std::memory_order_acquire)) {
        done_cv_.wait_for(lock, options_.idle_wait_seconds);
      }
    }
    if (waiter->error) {
      std::rethrow_exception(waiter->error);
    }
    return true;
  }

  /// Resolves the per-shard ctrl.* instruments (`ctrl.<shard>.commands`,
  /// `.batches`, `.queue_depth`, `.apply_latency`; `shard_label` is "s0",
  /// "s1", ...). Call from the apply context only (the instruments are
  /// touched exclusively by the applier).
  void set_metrics(obs::MetricsRegistry* metrics, std::string shard_label) {
    if (metrics == nullptr) {
      commands_ = nullptr;
      batches_ = nullptr;
      depth_gauge_ = nullptr;
      latency_ = nullptr;
      return;
    }
    shard_label_ = std::move(shard_label);
    commands_ = &metrics->counter("ctrl." + shard_label_ + ".commands");
    batches_ = &metrics->counter("ctrl." + shard_label_ + ".batches");
    depth_gauge_ = &metrics->gauge("ctrl." + shard_label_ + ".queue_depth");
    latency_ = &metrics->histogram("ctrl." + shard_label_ + ".apply_latency");
  }

  /// Posts from a *peer shard's apply thread*, bypassing backpressure: a
  /// full plane must never stall a peer applier (two planes handing units
  /// to each other under load would deadlock on each other's bounds). The
  /// traffic is bounded anyway: at most one hand-over (or request for
  /// one) is in flight per receiving shard (service_shard.h). Inline mode
  /// drains immediately on the calling thread — a hand-over in a
  /// single_threaded() runtime is just a nested drain.
  bool post_forward(Command command) {
    Envelope env{std::move(command), now(), nullptr};
    if (stopped_.load(std::memory_order_acquire)) {
      return false;
    }
    depth_.fetch_add(1, std::memory_order_seq_cst);
    queue_.push(std::move(env));
    if (!options_.threaded) {
      drain_inline();
      return true;
    }
    if (sleeping_.load(std::memory_order_seq_cst)) {
      check::MutexLock lock(mutex_);
      consumer_cv_.notify_one();
    }
    return true;
  }

  /// Drains outstanding commands, then joins the apply thread. Commands
  /// posted after stop() are dropped (post returns false); a command that
  /// raced the stop is popped without being applied, its waiter released.
  /// Idempotent.
  void stop() {
    if (stopped_.exchange(true, std::memory_order_acq_rel)) {
      if (consumer_.joinable()) {
        consumer_.join();
      }
      return;
    }
    {
      check::MutexLock lock(mutex_);
      stopping_ = true;
      consumer_cv_.notify_all();
      not_full_cv_.notify_all();
    }
    if (consumer_.joinable()) {
      consumer_.join();
    }
    // Anything that slipped past the stopped_ check is dropped unapplied.
    Envelope env;
    std::size_t dropped = 0;
    while (queue_.pop(env)) {
      ++dropped;
      if (env.waiter) {
        env.waiter->done.store(true, std::memory_order_release);
      }
    }
    if (dropped > 0) {
      depth_.fetch_sub(dropped, std::memory_order_relaxed);
      check::MutexLock lock(mutex_);
      done_cv_.notify_all();
    }
  }

  bool threaded() const { return options_.threaded; }

  /// Approximate commands in flight (posted, not yet applied).
  std::size_t depth() const {
    return depth_.load(std::memory_order_relaxed);
  }

 private:
  struct Waiter {
    std::atomic<bool> done{false};
    std::exception_ptr error;  ///< written before done, read after
  };

  struct Envelope {
    Command command{};
    double posted_at = 0.0;
    std::shared_ptr<Waiter> waiter;  ///< null for fire-and-forget
  };

  double now() const { return options_.clock ? options_.clock() : 0.0; }

  bool post_envelope(Envelope env) {
    if (stopped_.load(std::memory_order_acquire)) {
      return false;
    }
    if (!options_.threaded) {
      depth_.fetch_add(1, std::memory_order_seq_cst);
      queue_.push(std::move(env));
      drain_inline();
      return true;
    }
    const bool from_applier =
        std::this_thread::get_id() == applier_.load(std::memory_order_acquire);
    if (options_.bound > 0 && !from_applier) {
      // Backpressure: producers block while the queue is at its bound.
      check::MutexLock lock(mutex_);
      while (depth_.load(std::memory_order_relaxed) >= options_.bound &&
             !stopping_) {
        not_full_cv_.wait_for(lock, options_.idle_wait_seconds);
      }
      if (stopping_) {
        return false;
      }
    }
    depth_.fetch_add(1, std::memory_order_seq_cst);
    queue_.push(std::move(env));
    if (sleeping_.load(std::memory_order_seq_cst)) {
      check::MutexLock lock(mutex_);
      consumer_cv_.notify_one();
    }
    return true;
  }

  void apply_one(Envelope& env,
                 std::vector<std::shared_ptr<Waiter>>& batch_waiters) {
    if (commands_ != nullptr) {
      commands_->inc();
    }
    if (latency_ != nullptr && options_.clock) {
      const double waited = options_.clock() - env.posted_at;
      latency_->record(waited > 0.0 ? waited : 0.0);
    }
    try {
      apply_(env.command);
    } catch (...) {
      if (env.waiter) {
        env.waiter->error = std::current_exception();
      } else {
        PA_LOG(kWarn, "ctrl") << "fire-and-forget command failed: "
                              << current_exception_message();
      }
    }
    if (env.waiter) {
      batch_waiters.push_back(std::move(env.waiter));
    }
  }

  void run_batch_end() {
    if (batch_end_) {
      try {
        batch_end_();
      } catch (...) {
        PA_LOG(kWarn, "ctrl") << "batch-end hook failed: "
                              << current_exception_message();
      }
    }
    if (depth_gauge_ != nullptr) {
      depth_gauge_->set(static_cast<double>(depth()));
    }
  }

  static std::string current_exception_message() {
    try {
      throw;
    } catch (const std::exception& e) {
      return e.what();
    } catch (...) {
      return "unknown exception";
    }
  }

  /// Inline mode: drain on the posting thread. Reentrant posts (a handler
  /// or batch-end callout posting again) are picked up by the outer loop.
  void drain_inline() {
    if (draining_) {
      return;
    }
    draining_ = true;
    std::vector<std::shared_ptr<Waiter>> batch_waiters;
    while (!queue_.empty()) {
      Envelope env;
      while (queue_.pop(env)) {
        depth_.fetch_sub(1, std::memory_order_relaxed);
        apply_one(env, batch_waiters);
      }
      run_batch_end();
      if (batches_ != nullptr) {
        batches_->inc();
      }
      for (auto& w : batch_waiters) {
        w->done.store(true, std::memory_order_release);
      }
      batch_waiters.clear();
    }
    draining_ = false;
  }

  void consume_loop() {
    applier_.store(std::this_thread::get_id(), std::memory_order_release);
    std::vector<std::shared_ptr<Waiter>> batch_waiters;
    while (true) {
      Envelope env;
      std::size_t popped = 0;
      while (queue_.pop(env)) {
        ++popped;
        apply_one(env, batch_waiters);
      }
      if (popped > 0) {
        depth_.fetch_sub(popped, std::memory_order_relaxed);
      }
      // Batch end runs on the timer tick too (popped == 0): that is the
      // event-loop home of periodic schedule passes, which the workload
      // manager's dirty flag turns into a no-op when nothing changed.
      run_batch_end();
      if (popped > 0 && batches_ != nullptr) {
        batches_->inc();
      }
      if (!batch_waiters.empty() || popped > 0) {
        for (auto& w : batch_waiters) {
          w->done.store(true, std::memory_order_release);
        }
        batch_waiters.clear();
        check::MutexLock lock(mutex_);
        done_cv_.notify_all();
        not_full_cv_.notify_all();
      }
      check::MutexLock lock(mutex_);
      if (stopping_ && depth_.load(std::memory_order_relaxed) == 0) {
        break;
      }
      if (depth_.load(std::memory_order_relaxed) > 0) {
        continue;  // more arrived while we were applying (or is in flight)
      }
      sleeping_.store(true, std::memory_order_seq_cst);
      if (depth_.load(std::memory_order_seq_cst) == 0 && !stopping_) {
        consumer_cv_.wait_for(lock, options_.idle_wait_seconds);
      }
      sleeping_.store(false, std::memory_order_relaxed);
    }
    applier_.store(std::thread::id(), std::memory_order_release);
  }

  ApplyFn apply_;
  BatchEndFn batch_end_;
  Options options_;

  net::MpscQueue<Envelope> queue_;
  std::atomic<std::size_t> depth_{0};
  std::atomic<bool> stopped_{false};
  std::atomic<std::thread::id> applier_{};
  std::atomic<bool> sleeping_{false};

  /// Guards only sleep/wake + backpressure; never held across callouts.
  check::Mutex mutex_{check::LockRank::kCtrlQueue, "core::ControlPlane"};
  check::CondVar consumer_cv_;
  check::CondVar not_full_cv_;
  check::CondVar done_cv_;
  bool stopping_ PA_GUARDED_BY(mutex_) = false;

  /// Inline-mode reentrancy guard; only ever touched by the single
  /// posting thread of a single_threaded() runtime.
  bool draining_ = false;

  /// ctrl.* instruments; resolved and used only from the apply context.
  std::string shard_label_;
  obs::Counter* commands_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Histogram* latency_ = nullptr;

  std::thread consumer_;
};

}  // namespace pa::core
