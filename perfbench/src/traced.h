#pragma once
/// \file traced.h
/// \brief Outside-in tracing: thin decorators over four public interfaces
/// of the pilot system, plus the in-memory span store they feed.
///
///   core::Runtime              TracedRuntime      (rt::RemoteRuntime or
///                                                  rt::LocalRuntime)
///   net::Transport/Connection  TracedTransport    (TcpTransport)
///   core::JournalSink          TracedJournalSink  (journal::ServiceJournal)
///   core::DataServiceInterface TracedDataService  (store::StoreDataService)
///
/// Each decorator forwards every call unchanged and records when it
/// entered and left (or, for completion callbacks, when the callback
/// fired). Per-unit hop stamps are indexed by the client's unit slot,
/// recovered from the unit name ("u<index>"), so no map sits on the hot
/// path. Untraced runs construct none of this.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pa/core/journal_hook.h"
#include "pa/core/runtime.h"
#include "pa/net/transport.h"

namespace perfbench {

/// Per-unit hops, in the order a unit crosses them.
enum Hop : int {
  kSubmit,  ///< client called submit_units
  kExec,    ///< Runtime::execute_unit entered (bound, dispatched)
  kStart,   ///< payload started on a pilot core
  kEnd,     ///< payload returned
  kDone,    ///< Runtime's on_done callback fired
  kFinal,   ///< UnitObserver saw the terminal transition
  kHopCount
};

/// Layer calls timed by the decorators (and by the client around its own
/// public calls).
enum Call : int {
  kSubmitCall,       ///< PilotComputeService::submit_units
  kSendManager,      ///< Connection::send[_gather] on manager connections
  kSendAgent,        ///< ... on agent connections (manager link + peers)
  kHandlerManager,   ///< on_message on manager-accepted connections
  kHandlerAgent,     ///< on_message on agent connections
  kJournalEmit,      ///< any JournalSink hook
  kStage,            ///< stage_to_site call -> done callback
  kPut,              ///< StoreManager::put
  kCallCount
};

const char* hop_name(Hop hop);
const char* call_name(Call call);

class Trace {
 public:
  /// `units` bounds the hop-stamp slots; `max_spans` bounds the call
  /// spans kept for the span file (aggregates are always complete).
  explicit Trace(std::size_t units, std::size_t max_spans = 100000);

  /// Stamps `hop` for slot `index` (ignored when out of range).
  void stamp(Hop hop, long index);
  void stamp_at(Hop hop, long index, std::int64_t at_ns);
  /// Slot array for one hop (payload closures stamp it directly).
  std::atomic<std::int64_t>* hops(Hop hop) { return hops_[hop].get(); }
  std::int64_t hop_at(Hop hop, std::size_t index) const;

  /// Records one timed call; `items` counts frames for sends/handlers.
  void record(Call call, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t items = 1);

  struct CallTotals {
    std::uint64_t calls = 0;
    std::uint64_t items = 0;
    std::int64_t ns = 0;
  };
  CallTotals totals(Call call) const;
  /// Durations (ms) of every kStage call, for percentiles.
  std::vector<double> stage_ms() const;
  /// Clears call aggregates (not hop stamps), e.g. after warm-up.
  void reset_calls();

  /// Unit trees written per span file (the aggregates cover every unit).
  static constexpr std::size_t kUnitTrees = 16384;

  /// Writes the kept spans as JSON lines (id, name, start_ns, end_ns,
  /// parent, unit): every kept call span, then for up to kUnitTrees
  /// slots in [first_unit, last_unit) one "unit" root span (submit ->
  /// final) whose children are the unit's hops.
  void write(const std::string& path, std::size_t first_unit,
             std::size_t last_unit) const;

 private:
  struct Span {
    Call call;
    std::int64_t start;
    std::int64_t end;
  };
  struct Totals {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> items{0};
    std::atomic<std::int64_t> ns{0};
  };

  const std::int64_t epoch_;
  const std::size_t units_;
  const std::size_t max_spans_;
  std::array<std::unique_ptr<std::atomic<std::int64_t>[]>, kHopCount> hops_;
  std::array<Totals, kCallCount> totals_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;        ///< guarded by mu_
  std::vector<double> stage_ms_;   ///< guarded by mu_
};

/// core::Runtime decorator: stamps kExec when the service dispatches a
/// unit and kDone when the runtime reports it finished.
class TracedRuntime final : public pa::core::Runtime {
 public:
  TracedRuntime(pa::core::Runtime& inner, std::shared_ptr<Trace> trace)
      : inner_(inner), trace_(std::move(trace)) {}

  void start_pilot(const std::string& pilot_id,
                   const pa::core::PilotDescription& description,
                   pa::core::PilotRuntimeCallbacks callbacks) override {
    inner_.start_pilot(pilot_id, description, std::move(callbacks));
  }
  void cancel_pilot(const std::string& pilot_id) override {
    inner_.cancel_pilot(pilot_id);
  }
  void execute_unit(const std::string& pilot_id,
                    const pa::core::ComputeUnitDescription& description,
                    const std::string& unit_id,
                    std::function<void(bool)> on_done) override;
  double now() const override { return inner_.now(); }
  bool single_threaded() const override { return inner_.single_threaded(); }
  void drive_until(const std::function<bool()>& predicate,
                   double timeout_seconds) override {
    inner_.drive_until(predicate, timeout_seconds);
  }

 private:
  pa::core::Runtime& inner_;
  std::shared_ptr<Trace> trace_;
};

/// net::Transport decorator: every connection it hands out (accepted or
/// dialed) is wrapped so sends and delivered frames are timed. `side`
/// picks the call kinds: a manager-side instance records kSendManager /
/// kHandlerManager, an agent-side one kSendAgent / kHandlerAgent.
class TracedTransport final : public pa::net::Transport {
 public:
  enum class Side { kManager, kAgent };
  TracedTransport(pa::net::Transport& inner, std::shared_ptr<Trace> trace,
                  Side side)
      : inner_(inner), trace_(std::move(trace)), side_(side) {}

  std::string listen(const std::string& endpoint,
                     pa::net::AcceptHandler on_accept) override;
  pa::net::ConnectionPtr connect(const std::string& endpoint,
                                 pa::net::ConnectionHandlers handlers) override;
  void stop() override { inner_.stop(); }

  /// Counters of every connection this side opened or accepted.
  pa::net::ConnectionStats stats() const;

 private:
  pa::net::Transport& inner_;
  std::shared_ptr<Trace> trace_;
  const Side side_;
  /// Shared with the accept handlers, which can outlive the decorator
  /// (a transport has no unlisten).
  struct Conns {
    std::mutex mu;
    std::vector<std::weak_ptr<pa::net::Connection>> list;  ///< guarded by mu
  };
  const std::shared_ptr<Conns> conns_ = std::make_shared<Conns>();
};

/// core::JournalSink decorator: times every hook on the apply thread.
class TracedJournalSink final : public pa::core::JournalSink {
 public:
  TracedJournalSink(pa::core::JournalSink& inner, std::shared_ptr<Trace> trace)
      : inner_(inner), trace_(std::move(trace)) {}

  void pilot_submitted(const std::string& pilot_id,
                       const pa::core::PilotDescription& description,
                       int restarts_used, double time) override;
  void pilot_state(const std::string& pilot_id, pa::core::PilotState to,
                   int total_cores, const std::string& site,
                   double time) override;
  void unit_submitted(const std::string& unit_id,
                      const pa::core::ComputeUnitDescription& description,
                      double time) override;
  void unit_bound(const std::string& unit_id, const std::string& pilot_id,
                  double time) override;
  void unit_state(const std::string& unit_id, pa::core::UnitState to,
                  double time) override;
  void unit_requeued(const std::string& unit_id, double time) override;
  void data_placed(const std::string& data_unit, const std::string& site,
                   double time) override;

 private:
  pa::core::JournalSink& inner_;
  std::shared_ptr<Trace> trace_;
};

/// core::DataServiceInterface decorator: times each stage-in from the
/// call to its `done` callback.
class TracedDataService final : public pa::core::DataServiceInterface {
 public:
  TracedDataService(pa::core::DataServiceInterface& inner,
                    std::shared_ptr<Trace> trace)
      : inner_(inner), trace_(std::move(trace)) {}

  double bytes_on_site(const std::string& du_id,
                       const std::string& site) const override {
    return inner_.bytes_on_site(du_id, site);
  }
  double total_bytes(const std::string& du_id) const override {
    return inner_.total_bytes(du_id);
  }
  void stage_to_site(const std::string& du_id, const std::string& site,
                     std::function<void()> done) override;
  void register_output(const std::string& du_id,
                       const std::string& site) override {
    inner_.register_output(du_id, site);
  }

 private:
  pa::core::DataServiceInterface& inner_;
  std::shared_ptr<Trace> trace_;
};

}  // namespace perfbench
