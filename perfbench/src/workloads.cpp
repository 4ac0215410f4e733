/// The three workloads. A run strings several campaigns together; each
/// campaign sets up a fresh stack (timed: `setup_s`), warms it, runs a
/// fixed amount of work sized from `--seconds`, tears it down and checks
/// every output. End-to-end metrics are medians across campaigns. A
/// traced run alternates untraced and traced campaigns: the traced ones
/// supply the per-layer metrics, the pair gives the tracing overhead.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "pa/common/rng.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/journal/journal.h"
#include "pa/journal/recovery.h"
#include "pa/journal/service_journal.h"
#include "pa/net/tcp_transport.h"
#include "pa/obs/metrics.h"
#include "pa/rt/local_runtime.h"
#include "pa/rt/remote_runtime.h"
#include "pa/store/chunking.h"
#include "pa/store/data_service.h"
#include "pa/store/manager.h"
#include "traced.h"

namespace perfbench {

namespace fs = std::filesystem;
using pa::core::ComputeUnitDescription;
using pa::core::PilotComputeService;
using pa::core::PilotDescription;

namespace {

constexpr std::int64_t kSecond = 1'000'000'000;

/// Budget for one campaign's timed phase beyond which it stops submitting
/// and counts what is left as failed, and the wall time after which a run
/// starts no further campaign: a badly regressed program still finishes
/// well inside three minutes.
constexpr std::int64_t kPhaseBudgetNs = 60 * kSecond;
constexpr std::int64_t kRunBudgetNs = 90 * kSecond;

/// True when `name` matches `pattern`: exact, or with one `*` standing
/// for any run of characters (the shard label in "ctrl.*.commands").
bool matches(const std::string& name, const std::string& pattern) {
  const std::size_t star = pattern.find('*');
  if (star == std::string::npos) {
    return name == pattern;
  }
  const std::size_t tail = pattern.size() - star - 1;
  return name.size() >= pattern.size() - 1 &&
         name.compare(0, star, pattern, 0, star) == 0 &&
         name.compare(name.size() - tail, tail, pattern, star + 1, tail) == 0;
}

/// Sum of the registry counters matching `pattern`.
std::uint64_t counter(const pa::obs::MetricsRegistry& r,
                      const std::string& pattern) {
  std::uint64_t sum = 0;
  for (const auto& [name, value] : r.counters()) {
    if (matches(name, pattern)) {
      sum += value;
    }
  }
  return sum;
}

/// The first registry histogram matching `pattern`.
std::optional<pa::LatencyHistogram> histogram(
    const pa::obs::MetricsRegistry& r, const std::string& pattern) {
  for (const auto& [name, h] : r.histograms()) {
    if (matches(name, pattern)) {
      return h;
    }
  }
  return std::nullopt;
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-unit hop durations over slots [first, last), in the given unit.
std::vector<double> hop_gaps(const Trace& t, Hop from, Hop to,
                             std::size_t first, std::size_t last,
                             double ns_per_unit) {
  std::vector<double> out;
  out.reserve(last - first);
  for (std::size_t i = first; i < last; ++i) {
    const std::int64_t a = t.hop_at(from, i);
    const std::int64_t b = t.hop_at(to, i);
    if (a != 0 && b != 0 && b >= a) {
      out.push_back(static_cast<double>(b - a) / ns_per_unit);
    }
  }
  return out;
}

/// Everything the client side of one campaign owns besides the stack: the
/// unit book, the completion feed and (traced) the span store and the
/// metrics registry.
struct Client {
  Client(std::size_t capacity, std::uint64_t seed, bool traced)
      : book(capacity, seed),
        trace(traced ? std::make_shared<Trace>(capacity) : nullptr),
        registry(traced ? std::make_unique<pa::obs::MetricsRegistry>()
                        : nullptr) {}

  UnitBook book;
  CompletionLog log;
  std::shared_ptr<Trace> trace;
  std::unique_ptr<pa::obs::MetricsRegistry> registry;

  /// Fills in names and payloads, submits, and records the ids.
  void submit(PilotComputeService& service,
              std::vector<ComputeUnitDescription>& descs) {
    std::vector<std::size_t> slots;
    slots.reserve(descs.size());
    for (ComputeUnitDescription& d : descs) {
      const std::size_t slot = book.next_index(d);
      slots.push_back(slot);
      d.work = trace ? book.payload(slot, trace->hops(kStart),
                                    trace->hops(kEnd))
                     : book.payload(slot, nullptr, nullptr);
    }
    const std::int64_t t0 = now_ns();
    const std::vector<pa::core::ComputeUnit> handles =
        service.submit_units(descs);
    if (trace) {
      trace->record(kSubmitCall, t0, now_ns(), descs.size());
      for (std::size_t slot : slots) {
        trace->stamp_at(kSubmit, static_cast<long>(slot), t0);
      }
    }
    std::vector<std::string> ids;
    ids.reserve(handles.size());
    for (const auto& h : handles) {
      ids.push_back(h.id());
    }
    book.add_ids(ids);
  }

  void submit_n(PilotComputeService& service, std::size_t n) {
    std::vector<ComputeUnitDescription> descs(n);
    submit(service, descs);
  }

  /// Exactly-once check over every unit; stamps kFinal from the log.
  /// Returns the number of units that ended other than DONE.
  std::uint64_t check(Result& result) {
    const std::vector<CompletionLog::Final> finals = log.finals();
    if (trace) {
      std::map<std::string, std::size_t> slot;
      for (std::size_t i = 0; i < book.size(); ++i) {
        slot.emplace(book.id(i), i);
      }
      for (const auto& f : finals) {
        const auto it = slot.find(f.unit_id);
        if (it != slot.end()) {
          trace->stamp_at(kFinal, static_cast<long>(it->second), f.at_ns);
        }
      }
    }
    return book.check(finals, result);
  }
};

/// Cancels every submitted unit the log has not seen finish. Queued units
/// end at once; staging/running ones end when their attempt does.
void cancel_unfinished(PilotComputeService& service, Client& client) {
  std::map<std::string, int> done;
  for (const auto& f : client.log.finals()) {
    done[f.unit_id] = 1;
  }
  for (std::size_t i = 0; i < client.book.size(); ++i) {
    if (done.find(client.book.id(i)) == done.end()) {
      service.cancel_unit(client.book.id(i));
    }
  }
}

PilotDescription pilot(const std::string& url, int cores) {
  PilotDescription d;
  d.resource_url = url;
  d.nodes = cores;
  d.walltime = 1e9;
  return d;
}

/// Removes a directory tree when it goes out of scope (also on throw).
class ScratchDir {
 public:
  explicit ScratchDir(fs::path path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// --- TCP fleet (farm_backlog, stage_farm) ---------------------------------

/// Manager + in-process agents over one TCP loopback transport. Traced
/// fleets route the manager and the agents through separate transport
/// decorators and the service through a runtime decorator.
class Fleet {
 public:
  /// `agent_shard_bytes` bounds each agent's store shard (0 = unbounded).
  Fleet(Client& client, pa::store::StoreManager* store,
        std::uint64_t agent_shard_bytes = 0) {
    pa::net::Transport* manager_side = &tcp_;
    pa::net::Transport* agent_side = &tcp_;
    if (client.trace) {
      manager_tx_ = std::make_unique<TracedTransport>(
          tcp_, client.trace, TracedTransport::Side::kManager);
      agent_tx_ = std::make_unique<TracedTransport>(
          tcp_, client.trace, TracedTransport::Side::kAgent);
      manager_side = manager_tx_.get();
      agent_side = agent_tx_.get();
    }
    pa::rt::RemoteRuntimeConfig config;
    config.listen_endpoint = "127.0.0.1:0";
    config.metrics = client.registry.get();
    config.launcher = [this, agent_side, agent_shard_bytes,
                       metrics = client.registry.get()](
                          const std::string& pilot_id,
                          const std::string& endpoint) {
      pa::rt::AgentEndpointConfig agent_config;
      agent_config.metrics = metrics;
      agent_config.store.shard.memory_capacity_bytes = agent_shard_bytes;
      auto agent = std::make_unique<pa::rt::AgentEndpoint>(
          *agent_side, endpoint, pilot_id, remote_->payloads(), agent_config);
      std::lock_guard<std::mutex> lock(agents_mu_);
      agents_.push_back(std::move(agent));
    };
    remote_ = std::make_unique<pa::rt::RemoteRuntime>(*manager_side,
                                                      std::move(config));
    if (store != nullptr) {
      remote_->attach_store(store);
    }
    pa::core::Runtime* runtime = remote_.get();
    if (client.trace) {
      traced_ = std::make_unique<TracedRuntime>(*remote_, client.trace);
      runtime = traced_.get();
    }
    runtime_ = runtime;
  }

  ~Fleet() {
    service_.reset();
    traced_.reset();
    remote_.reset();
    {
      std::lock_guard<std::mutex> lock(agents_mu_);
      agents_.clear();
    }
    tcp_.stop();
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  PilotComputeService& make_service(Client& client, const std::string& policy) {
    service_ = std::make_unique<PilotComputeService>(*runtime_, policy);
    if (client.registry) {
      service_->attach_observability(nullptr, client.registry.get());
    }
    service_->observe_units(
        [log = &client.log](const std::string& id, pa::core::UnitState,
                            pa::core::UnitState to) {
          log->on_transition(id, to);
        });
    return *service_;
  }
  PilotComputeService& service() { return *service_; }

  /// Mean agent-side late-binding queue depth and credit window.
  std::pair<double, double> agent_sample() {
    std::lock_guard<std::mutex> lock(agents_mu_);
    double queued = 0.0;
    double window = 0.0;
    for (const auto& a : agents_) {
      const auto s = a->scheduler_stats();
      queued += static_cast<double>(s.queued);
      window += static_cast<double>(s.window);
    }
    return {queued, window};
  }

  pa::net::ConnectionStats net_stats() const {
    pa::net::ConnectionStats sum;
    for (const TracedTransport* t : {manager_tx_.get(), agent_tx_.get()}) {
      if (t != nullptr) {
        const pa::net::ConnectionStats s = t->stats();
        sum.bytes_out += s.bytes_out;
        sum.send_rejected += s.send_rejected;
      }
    }
    return sum;
  }

 private:
  pa::net::TcpTransport tcp_;
  std::unique_ptr<TracedTransport> manager_tx_;
  std::unique_ptr<TracedTransport> agent_tx_;
  std::mutex agents_mu_;
  std::vector<std::unique_ptr<pa::rt::AgentEndpoint>> agents_;
  std::unique_ptr<pa::rt::RemoteRuntime> remote_;
  std::unique_ptr<TracedRuntime> traced_;
  pa::core::Runtime* runtime_ = nullptr;
  std::unique_ptr<PilotComputeService> service_;
};

// --- shared per-layer reporting --------------------------------------------

/// Counter values at the start of the timed phase, so per-layer figures
/// cover the timed work only.
struct Baseline {
  std::uint64_t passes = 0;
  std::uint64_t commands = 0;
  std::uint64_t batches = 0;
  std::uint64_t journal_records = 0;
  std::uint64_t journal_flushes = 0;
  std::uint64_t journal_bytes = 0;
  pa::net::ConnectionStats net;
};

Baseline baseline(const Client& c, const Fleet* fleet) {
  Baseline b;
  if (c.registry) {
    b.passes = counter(*c.registry, "wm.schedule_passes");
    b.commands = counter(*c.registry, "ctrl.*.commands");
    b.batches = counter(*c.registry, "ctrl.*.batches");
    b.journal_records = counter(*c.registry, "journal.records");
    b.journal_flushes = counter(*c.registry, "journal.flushes");
    b.journal_bytes = counter(*c.registry, "journal.flushed_bytes");
  }
  if (fleet != nullptr) {
    b.net = fleet->net_stats();
  }
  if (c.trace) {
    c.trace->reset_calls();
  }
  return b;
}

/// Agent-side late-binding queue depth and credit window, sampled by the
/// client at each submission of the timed phase.
struct AgentSamples {
  double queued = 0.0;
  double window = 0.0;
  double count = 0.0;

  void take(Fleet& fleet) {
    const auto [q, w] = fleet.agent_sample();
    queued += q;
    window += w;
    count += 1.0;
  }
};

/// The core.*, rt.*, net.* and journal.* figures of a traced campaign over
/// timed slots [first, last). Every workload reports every layer: a layer
/// the workload bypasses did no work and reads 0 (no fleet: no frames and
/// no agents; no journal: no records).
void report_layers(const Client& c, const Baseline& b, const Fleet* fleet,
                   const AgentSamples& agents, std::size_t first,
                   std::size_t last, double completed, Result& r) {
  const Trace& t = *c.trace;
  const pa::obs::MetricsRegistry& reg = *c.registry;
  const double units = static_cast<double>(last - first);
  const auto since = [&reg](const std::string& pattern, std::uint64_t at) {
    return static_cast<double>(counter(reg, pattern) - at);
  };
  // A registry histogram's median or p99 in ms; 0 if it recorded nothing.
  const auto hist_ms = [&reg](const std::string& pattern, bool tail) {
    const auto h = histogram(reg, pattern);
    return h ? (tail ? h->p99() : h->p50()) * 1e3 : 0.0;
  };

  // core
  const Trace::CallTotals submit = t.totals(kSubmitCall);
  r.add("core.submit_us_per_unit",
        per(static_cast<double>(submit.ns) / 1e3,
            static_cast<double>(submit.items)),
        "us");
  std::vector<double> bind = hop_gaps(t, kSubmit, kExec, first, last, 1e6);
  r.add("core.bind_ms_p50", quantile(bind, 0.5), "ms");
  r.add("core.bind_ms_p99", quantile(bind, 0.99), "ms");
  r.add("core.schedule_passes_per_1k_units",
        per(since("wm.schedule_passes", b.passes) * 1000.0, units), "count");
  r.add("core.apply_latency_ms_p99", hist_ms("ctrl.*.apply_latency", true),
        "ms");
  r.add("core.commands_per_batch",
        per(since("ctrl.*.commands", b.commands),
            since("ctrl.*.batches", b.batches)),
        "count");
  std::vector<double> fin = hop_gaps(t, kDone, kFinal, first, last, 1e3);
  r.add("core.finalize_us_p50", quantile(fin, 0.5), "us");
  r.add("core.finalize_us_p99", quantile(fin, 0.99), "us");

  // rt
  std::vector<double> disp = hop_gaps(t, kExec, kStart, first, last, 1e3);
  r.add("rt.dispatch_us_p50", quantile(disp, 0.5), "us");
  r.add("rt.dispatch_us_p99", quantile(disp, 0.99), "us");
  std::vector<double> comp = hop_gaps(t, kEnd, kDone, first, last, 1e3);
  r.add("rt.complete_us_p50", quantile(comp, 0.5), "us");
  r.add("rt.complete_us_p99", quantile(comp, 0.99), "us");
  r.add("rt.agent_queued_mean", per(agents.queued, agents.count), "count");
  r.add("rt.window_mean", per(agents.window, agents.count), "count");

  // net
  const Trace::CallTotals sm = t.totals(kSendManager);
  const Trace::CallTotals sa = t.totals(kSendAgent);
  const Trace::CallTotals hm = t.totals(kHandlerManager);
  const Trace::CallTotals ha = t.totals(kHandlerAgent);
  const pa::net::ConnectionStats net =
      fleet != nullptr ? fleet->net_stats() : b.net;
  const double frames = static_cast<double>(sm.items + sa.items);
  r.add("net.frames_per_unit", per(frames, completed), "count");
  r.add("net.bytes_per_unit",
        per(static_cast<double>(net.bytes_out - b.net.bytes_out), completed),
        "B");
  r.add("net.units_per_batch", per(completed, static_cast<double>(sm.items)),
        "count");
  r.add("net.send_us_per_frame",
        per(static_cast<double>(sm.ns + sa.ns) / 1e3, frames), "us");
  r.add("net.handler_us_per_frame.manager",
        per(static_cast<double>(hm.ns) / 1e3, static_cast<double>(hm.calls)),
        "us");
  r.add("net.handler_us_per_frame.agent",
        per(static_cast<double>(ha.ns) / 1e3, static_cast<double>(ha.calls)),
        "us");
  r.add("net.send_rejected",
        static_cast<double>(net.send_rejected - b.net.send_rejected), "count");

  // journal
  r.add("journal.emit_us_per_unit",
        per(static_cast<double>(t.totals(kJournalEmit).ns) / 1e3, completed),
        "us");
  r.add("journal.records_per_flush",
        per(since("journal.records", b.journal_records),
            since("journal.flushes", b.journal_flushes)),
        "count");
  r.add("journal.flush_ms_p50", hist_ms("journal.flush_seconds", false), "ms");
  r.add("journal.flush_ms_p99", hist_ms("journal.flush_seconds", true), "ms");
  r.add("journal.bytes_per_unit",
        per(since("journal.flushed_bytes", b.journal_bytes), completed), "B");
}

// --- campaigns -------------------------------------------------------------

/// One campaign: a fresh stack is set up (timed: that is `setup_s`),
/// warmed, run through its timed phase, torn down and checked. A run
/// strings several campaigns together and reports medians across them,
/// so a burst of host interference spoils one campaign, not the run.
struct Campaign {
  double setup_s = 0.0;
  double units = 0.0;    ///< completed in the timed phase
  double seconds = 0.0;  ///< timed-phase wall time
  double cpu = 0.0;      ///< timed-phase process CPU time
  /// Turnaround of each timed round: one submit_units call, from the call
  /// until the last of its units is final.
  std::vector<double> round_ms;
  double recover_s = 0.0;  ///< 0 when the workload keeps no journal
  double replayed = 0.0;   ///< journal records recovery replayed
  double put_bytes = 0.0;
  double put_s = 0.0;
  double staged_mb = 0.0;
  double stage_s = 0.0;
  /// A stage-in step missed its deadline: the run ends after this one.
  bool stalled = false;
  /// attempted/failed/errors; per-layer metrics when traced.
  Result result;

  double units_per_s() const { return per(units, seconds); }
};

/// Untraced: `campaigns` campaigns and the end-to-end metrics. Traced:
/// alternating traced and untraced campaigns, a third as many of each,
/// traced first (so a run that stops early still has per-layer figures);
/// the per-layer metrics come from the last traced one, the overhead from
/// the medians of each kind, and the round tail and recovery time from the
/// untraced ones.
/// `end_to_end(untraced campaigns, result, traced)` adds the workload's
/// own figures.
/// Per-campaign quantile `q` of the round turnarounds, then the median
/// across campaigns.
double round_quantile(const std::vector<Campaign>& campaigns, double q) {
  std::vector<double> each;
  for (const Campaign& c : campaigns) {
    std::vector<double> rounds = c.round_ms;
    each.push_back(quantile(rounds, q));
  }
  return median(each);
}

template <typename CampaignFn, typename EndToEnd>
Result run_campaigns(const Options& o, int campaigns, CampaignFn&& campaign,
                     EndToEnd&& end_to_end) {
  const int count = o.smoke ? 1 : std::max(3, campaigns);
  std::vector<Campaign> plain;
  std::vector<Campaign> traced;
  Result r;
  const std::int64_t run_start = now_ns();
  const auto collect = [&r](const Campaign& c) {
    r.attempted += c.result.attempted;
    r.failed += c.result.failed;
    for (const std::string& e : c.result.errors) {
      r.error(e);
    }
  };
  for (int i = 0; i < (o.trace ? 2 * std::max(1, count / 3) : count); ++i) {
    const bool trace_this = o.trace && i % 2 == 0;
    Campaign c = campaign(trace_this, i);
    // Hand the campaign's freed heap back to the OS, so peak_rss_mb is
    // the largest single campaign rather than allocator leftovers.
    malloc_trim(0);
    collect(c);
    const bool stalled = c.stalled;
    (trace_this ? traced : plain).push_back(std::move(c));
    const bool over_budget = now_ns() - run_start > kRunBudgetNs &&
                             !plain.empty() && (!o.trace || !traced.empty());
    if (stalled || over_budget) {
      break;
    }
  }
  if (!o.trace) {
    std::vector<double> ups, cpu, setup;
    for (const Campaign& c : plain) {
      ups.push_back(c.units_per_s());
      cpu.push_back(per(c.cpu * 1e6, c.units));
      setup.push_back(c.setup_s);
    }
    r.add("units_per_s", median(ups), "1/s");
    r.add("cpu_us_per_unit", median(cpu), "us");
    r.add("setup_s", median(setup), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.add("round_ms_p50", round_quantile(plain, 0.5), "ms");
    end_to_end(plain, r, false);
    return r;
  }
  const Campaign& last = traced.back();
  for (const Metric& m : last.result.metrics) {
    r.metrics.push_back(m);
  }
  r.add("journal.replay_records_per_s", per(last.replayed, last.recover_s),
        "1/s");
  std::vector<double> plain_ups, traced_ups, recover;
  for (const Campaign& c : plain) {
    plain_ups.push_back(c.units_per_s());
    recover.push_back(c.recover_s);
  }
  for (const Campaign& c : traced) {
    traced_ups.push_back(c.units_per_s());
  }
  // The tail of untraced rounds and the recovery time carry no bound:
  // on a shared VM their run-to-run spread exceeds any bound the
  // benchmark may set, and recovery exists on one workload only.
  r.add("trace.overhead_pct",
        plain.empty()
            ? 0.0
            : (per(median(plain_ups), median(traced_ups)) - 1.0) * 100.0,
        "%");
  r.add("round_ms_p90", round_quantile(plain, 0.9), "ms");
  r.add("recover_s", median(recover), "s");
  end_to_end(plain, r, true);
  return r;
}

/// Times `setup` and returns what it built.
template <typename Setup>
auto timed_setup(double& seconds, Setup&& setup) {
  const std::int64_t t0 = now_ns();
  auto built = setup();
  seconds = static_cast<double>(now_ns() - t0) / kSecond;
  return built;
}

/// Turnaround of each round whose units all finished: round `k` is the
/// `size` slots from `first + k * size`, submitted at `start[k]`.
std::vector<double> round_turnarounds(const Client& c, std::size_t first,
                                      const std::vector<std::int64_t>& start,
                                      std::size_t size) {
  std::unordered_map<std::string, std::int64_t> final_at;
  for (const CompletionLog::Final& f : c.log.finals()) {
    final_at.emplace(f.unit_id, f.at_ns);
  }
  std::vector<double> out;
  for (std::size_t k = 0; k < start.size(); ++k) {
    std::int64_t last = 0;
    const std::size_t end = std::min(first + (k + 1) * size, c.book.size());
    for (std::size_t i = first + k * size; i < end && last >= 0; ++i) {
      const auto it = final_at.find(c.book.id(i));
      last = it == final_at.end() ? -1 : std::max(last, it->second);
    }
    if (last > 0) {
      out.push_back(static_cast<double>(last - start[k]) / 1e6);
    }
  }
  return out;
}

// --- farm_backlog ----------------------------------------------------------

constexpr std::size_t kBacklog = 4096;
constexpr std::size_t kChunk = 256;
constexpr std::size_t kFarmWarmUnits = 4096;
/// Timed units per campaign (about 3 s on a 4-core host); a run holds
/// one campaign per 3 s of its `--seconds` budget.
constexpr std::size_t kFarmUnits = 40000;
constexpr int kFarmSecondsPerCampaign = 3;

Campaign farm_campaign(const Options& o, bool traced) {
  const std::size_t units =
      o.smoke ? 2 * kBacklog : kFarmUnits;
  const std::size_t warm = o.smoke ? kChunk : kFarmWarmUnits;
  Campaign out;
  Client c(warm + units, o.seed, traced);
  auto fleet = timed_setup(out.setup_s, [&] {
    auto f = std::make_unique<Fleet>(c, nullptr);
    PilotComputeService& svc = f->make_service(c, "backfill");
    svc.submit_pilot(pilot("remote://farm", 2)).wait_active(30.0);
    // Warm-up slice: one backlog's worth through the whole pipeline.
    for (std::size_t n = 0; n < warm; n += kChunk) {
      c.submit_n(svc, std::min(kChunk, warm - n));
    }
    if (c.log.wait_for(warm, now_ns() + 60 * kSecond) < warm) {
      throw std::runtime_error("farm_backlog: warm-up did not complete");
    }
    return f;
  });
  PilotComputeService& svc = fleet->service();
  const Baseline base = baseline(c, fleet.get());

  // Standing backlog: keep kBacklog units unfinished, topping up in
  // kChunk-sized submissions as completions free room. Each submission is
  // one round; its turnaround is read from the completion log afterwards.
  AgentSamples agents;
  std::vector<std::int64_t> round_start;
  round_start.reserve(units / kChunk + 1);
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + kPhaseBudgetNs;
  std::size_t submitted = 0;
  while (submitted < units) {
    const std::size_t room_at = submitted + kChunk;
    if (room_at > kBacklog) {
      const std::uint64_t need = warm + room_at - kBacklog;
      if (c.log.wait_for(need, deadline) < need) {
        break;
      }
    }
    if (c.trace) {
      agents.take(*fleet);
    }
    const std::size_t n = std::min(kChunk, units - submitted);
    round_start.push_back(now_ns());
    c.submit_n(svc, n);
    submitted += n;
  }
  const std::uint64_t done = c.log.wait_for(warm + submitted, deadline);
  out.seconds = static_cast<double>(now_ns() - t0) / kSecond;
  out.cpu = cpu_seconds() - cpu0;
  out.units = static_cast<double>(done - warm);
  if (done < warm + submitted) {
    cancel_unfinished(svc, c);
    svc.shutdown();
    c.log.wait_for(warm + submitted, now_ns() + 10 * kSecond);
  }

  out.round_ms = round_turnarounds(c, warm, round_start, kChunk);

  Result& r = out.result;
  r.attempted = c.book.size();
  r.failed = c.check(r) + (units - submitted);
  if (traced) {
    report_layers(c, base, fleet.get(), agents, warm, warm + submitted,
                  out.units, r);
    if (!o.trace_out.empty()) {
      c.trace->write(o.trace_out, warm, warm + submitted);
    }
  }
  return out;
}

// --- ensemble_durable ------------------------------------------------------

constexpr std::size_t kMembers = 256;
constexpr std::size_t kEnsembleWarmRounds = 24;
/// Timed rounds per campaign (about 1.5 s on a 4-core host, plus set-up
/// and recovery); a run holds one campaign per 2 s of its budget.
constexpr std::size_t kRounds = 200;
constexpr int kEnsembleSecondsPerCampaign = 2;

/// Local pilot + write-ahead journal in `dir`.
struct DurableStack {
  DurableStack(Client& client, const std::string& dir)
      : journal(dir),
        sink(journal),
        traced_sink(client.trace
                        ? std::make_unique<TracedJournalSink>(sink,
                                                              client.trace)
                        : nullptr),
        traced_rt(client.trace
                      ? std::make_unique<TracedRuntime>(local, client.trace)
                      : nullptr),
        service(traced_rt ? static_cast<pa::core::Runtime&>(*traced_rt)
                          : static_cast<pa::core::Runtime&>(local),
                "backfill") {
    if (client.registry) {
      journal.set_metrics(client.registry.get());
      service.attach_observability(nullptr, client.registry.get());
    }
    service.attach_journal(traced_sink
                               ? static_cast<pa::core::JournalSink*>(
                                     traced_sink.get())
                               : &sink);
    service.observe_units([log = &client.log](const std::string& id,
                                              pa::core::UnitState,
                                              pa::core::UnitState to) {
      log->on_transition(id, to);
    });
  }

  /// Shuts the service down and closes the journal (idempotent).
  void close() {
    if (!closed) {
      closed = true;
      service.shutdown();
      service.attach_journal(nullptr);
      journal.close();
    }
  }
  ~DurableStack() {
    try {
      close();
    } catch (...) {
      // Teardown of a failed run; the directory is removed regardless.
    }
  }
  DurableStack(const DurableStack&) = delete;
  DurableStack& operator=(const DurableStack&) = delete;

  pa::journal::Journal journal;
  pa::journal::ServiceJournal sink;
  std::unique_ptr<TracedJournalSink> traced_sink;
  pa::rt::LocalRuntime local;
  std::unique_ptr<TracedRuntime> traced_rt;
  PilotComputeService service;
  bool closed = false;
};

Campaign ensemble_campaign(const Options& o, bool traced, int index) {
  const std::size_t rounds = o.smoke ? 12 : kRounds;
  const std::size_t warm_rounds = o.smoke ? 2 : kEnsembleWarmRounds;
  const std::size_t warm = warm_rounds * kMembers;
  Campaign out;
  Client c((warm_rounds + rounds) * kMembers, o.seed, traced);
  // Declared before the stack, so the directory outlives the journal
  // and is removed however the campaign ends.
  std::optional<ScratchDir> wal;
  auto stack = timed_setup(out.setup_s, [&] {
    wal.emplace(fs::path(o.work_dir) / ("wal-" + std::to_string(index)));
    auto s = std::make_unique<DurableStack>(c, wal->path().string());
    s->service.submit_pilot(pilot("local://ensemble", 2)).wait_active(30.0);
    for (std::size_t i = 0; i < warm_rounds; ++i) {
      c.submit_n(s->service, kMembers);
      const std::uint64_t need = (i + 1) * kMembers;
      if (c.log.wait_for(need, now_ns() + 60 * kSecond) < need) {
        throw std::runtime_error("ensemble_durable: warm-up did not complete");
      }
    }
    return s;
  });
  Result& r = out.result;
  const Baseline base = baseline(c, nullptr);

  // Closed loop: each round submits its members and waits for all of
  // them (the barrier) before the next round starts.
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + kPhaseBudgetNs;
  std::size_t ran = 0;
  while (ran < rounds) {
    const std::int64_t start = now_ns();
    c.submit_n(stack->service, kMembers);
    ++ran;
    const std::uint64_t need = warm + ran * kMembers;
    if (c.log.wait_for(need, deadline) < need) {
      break;
    }
    out.round_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
  }
  out.seconds = static_cast<double>(now_ns() - t0) / kSecond;
  out.cpu = cpu_seconds() - cpu0;
  out.units = static_cast<double>(c.log.count() - warm);
  if (c.log.count() < warm + ran * kMembers) {
    cancel_unfinished(stack->service, c);
  }

  // Shut down and flush the journal; every unit is final afterwards.
  stack->close();
  r.attempted = c.book.size();
  r.failed = c.check(r) + (rounds - ran) * kMembers;
  if (traced) {
    report_layers(c, base, nullptr, AgentSamples{}, warm,
                  warm + ran * kMembers, out.units, r);
    if (!o.trace_out.empty()) {
      c.trace->write(o.trace_out, warm, warm + ran * kMembers);
    }
  }
  // The service goes before recovery reads the journal it wrote.
  stack.reset();

  // Recovery: the image must hold every submitted unit exactly once, DONE.
  pa::journal::RecoveryCoordinator coordinator(wal->path().string());
  const std::int64_t start = now_ns();
  const pa::journal::RecoveryResult rec = coordinator.recover();
  out.recover_s = static_cast<double>(now_ns() - start) / kSecond;
  out.replayed = static_cast<double>(rec.records_replayed);
  const auto& image = rec.image.units();
  std::size_t bad = 0;
  for (std::size_t u = 0; u < c.book.size(); ++u) {
    const auto it = image.find(c.book.id(u));
    if (it == image.end() || it->second.state != pa::core::UnitState::kDone ||
        it->second.terminal_count != 1) {
      ++bad;
    }
  }
  if (bad > r.failed) {
    r.error(std::to_string(bad) +
            " submitted units not DONE exactly once in the recovered image");
  }
  if (image.size() != c.book.size()) {
    r.error("recovered image holds " + std::to_string(image.size()) +
            " units, submitted " + std::to_string(c.book.size()));
  }
  return out;
}

// --- stage_farm ------------------------------------------------------------

constexpr std::size_t kStepObjects = 64;
constexpr std::size_t kHotObjects = 32;
constexpr std::uint64_t kMinObject = 64 * 1024;  // the peer-transfer floor
constexpr std::uint64_t kMaxObject = 4 * 1024 * 1024;
/// Agent shard memory budget: older replicas are evicted (and the
/// manager told), which keeps a campaign's footprint bounded.
constexpr std::uint64_t kAgentShardBytes = 64 * 1024 * 1024;
constexpr std::int64_t kStepDeadlineNs = 10 * kSecond;
constexpr int kStageCampaigns = 6;

/// `count` object sizes spread evenly over the log-uniform range
/// [kMinObject, kMaxObject], in seeded order: every step moves the same
/// bytes, the seed decides which unit gets which size.
std::vector<std::size_t> object_sizes(std::size_t count, pa::Rng& rng) {
  const double lo = std::log(static_cast<double>(kMinObject));
  const double hi = std::log(static_cast<double>(kMaxObject));
  std::vector<std::size_t> sizes(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double at = (static_cast<double>(i) + 0.5) / static_cast<double>(count);
    sizes[i] = static_cast<std::size_t>(std::exp(lo + (hi - lo) * at));
  }
  for (std::size_t i = count; i > 1; --i) {
    std::swap(sizes[i - 1], sizes[rng.next_u64() % i]);
  }
  return sizes;
}

std::string object_bytes(std::size_t size, pa::Rng& rng) {
  std::string bytes(size, '\0');
  for (std::size_t i = 0; i < size; i += 8) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(bytes.data() + i, &v, std::min<std::size_t>(8, size - i));
  }
  return bytes;
}

/// Two remote pilots on two sites, a store and data-affinity scheduling.
struct StageStack {
  explicit StageStack(Client& client)
      : store([&] {
          pa::store::StoreManagerConfig cfg;
          cfg.metrics = client.registry.get();
          return cfg;
        }()),
        data(store),
        traced_data(client.trace ? std::make_unique<TracedDataService>(
                                       data, client.trace)
                                 : nullptr),
        fleet(client, &store, kAgentShardBytes) {
    PilotComputeService& svc = fleet.make_service(client, "data-affinity");
    svc.attach_data_service(
        traced_data ? static_cast<pa::core::DataServiceInterface*>(
                          traced_data.get())
                    : &data);
  }
  StageStack(const StageStack&) = delete;
  StageStack& operator=(const StageStack&) = delete;

  // Destroyed bottom-up: the fleet (service, runtime, agents) before the
  // data service and the store it uses.
  pa::store::StoreManager store;
  pa::store::StoreDataService data;
  std::unique_ptr<TracedDataService> traced_data;
  Fleet fleet;
  std::vector<std::string> hot;
};

/// Blocks until `pilot_id` holds `object_id`; false on failure/timeout.
bool ensure_and_wait(pa::store::StoreManager& store,
                     const std::string& pilot_id,
                     const std::string& object_id) {
  struct Wait {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
  };
  auto w = std::make_shared<Wait>();
  store.ensure_on(pilot_id, object_id, [w](bool ok) {
    std::lock_guard<std::mutex> lock(w->mu);
    w->done = true;
    w->ok = ok;
    w->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(w->mu);
  w->cv.wait_for(lock, std::chrono::seconds(20), [&] { return w->done; });
  return w->done && w->ok;
}

Campaign stage_campaign(const Options& o, bool traced, int index) {
  const std::size_t steps =
      o.smoke ? 2 : std::max<std::size_t>(1, o.seconds / 10);
  const std::size_t warm = o.smoke ? 8 : kStepObjects;
  pa::Rng rng(o.seed * 1000003ULL + static_cast<std::uint64_t>(index));
  Campaign out;
  Client c(warm + steps * kStepObjects, o.seed, traced);
  auto stack = timed_setup(out.setup_s, [&] {
    auto s = std::make_unique<StageStack>(c);
    PilotComputeService& svc = s->fleet.service();
    pa::core::Pilot a = svc.submit_pilot(pilot("remote://site-a", 2));
    pa::core::Pilot b = svc.submit_pilot(pilot("remote://site-b", 2));
    a.wait_active(30.0);
    b.wait_active(30.0);
    // Hot set: placed on site-a one object at a time.
    for (std::size_t size : object_sizes(kHotObjects, rng)) {
      s->hot.push_back(s->store.put(object_bytes(size, rng)));
      if (!ensure_and_wait(s->store, a.id(), s->hot.back())) {
        throw std::runtime_error("stage_farm: hot-set placement failed");
      }
    }
    // Warm-up slice: units reading hot objects only (site-b ones take
    // the peer path, dialing the peer channels once).
    std::vector<ComputeUnitDescription> descs(warm);
    for (std::size_t i = 0; i < warm; ++i) {
      descs[i].input_data = {s->hot[i % kHotObjects]};
    }
    c.submit(svc, descs);
    if (c.log.wait_for(warm, now_ns() + 60 * kSecond) < warm) {
      throw std::runtime_error("stage_farm: warm-up did not complete");
    }
    return s;
  });
  PilotComputeService& svc = stack->fleet.service();
  pa::store::StoreManager& store = stack->store;
  Result& r = out.result;
  const Baseline base = baseline(c, &stack->fleet);
  const pa::store::StoreManagerStats s0 = store.stats();

  std::vector<std::string> staged;
  std::size_t stalled_units = 0;
  AgentSamples agents;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  for (std::size_t step = 0; step < steps && stalled_units == 0; ++step) {
    // Writes: fresh objects into the store.
    std::vector<std::string> fresh;
    for (std::size_t size : object_sizes(kStepObjects, rng)) {
      const std::string bytes = object_bytes(size, rng);
      const std::int64_t p0 = now_ns();
      fresh.push_back(store.put(bytes));
      const std::int64_t p1 = now_ns();
      if (c.trace) {
        c.trace->record(kPut, p0, p1, bytes.size());
      }
      out.put_s += static_cast<double>(p1 - p0) / kSecond;
      out.put_bytes += static_cast<double>(bytes.size());
    }
    staged.insert(staged.end(), fresh.begin(), fresh.end());
    // Reads: one unit per fresh object, each also reading a hot object.
    std::vector<ComputeUnitDescription> descs(kStepObjects);
    for (std::size_t i = 0; i < kStepObjects; ++i) {
      descs[i].input_data = {fresh[i],
                             stack->hot[rng.next_u64() % kHotObjects]};
    }
    if (c.trace) {
      agents.take(stack->fleet);
    }
    const std::int64_t s_start = now_ns();
    const std::uint64_t need = c.book.size() + kStepObjects;
    c.submit(svc, descs);
    const std::uint64_t got = c.log.wait_for(need, s_start + kStepDeadlineNs);
    out.stage_s += static_cast<double>(now_ns() - s_start) / kSecond;
    stalled_units = need - got;
    if (stalled_units == 0) {
      out.round_ms.push_back(static_cast<double>(now_ns() - s_start) / 1e6);
    }
  }
  out.seconds = static_cast<double>(now_ns() - t0) / kSecond;
  out.cpu = cpu_seconds() - cpu0;
  out.units = static_cast<double>(c.log.count() - warm);
  const pa::store::StoreManagerStats s1 = store.stats();
  out.staged_mb = static_cast<double>((s1.push_bytes - s0.push_bytes) +
                                      (s1.peer_bytes - s0.peer_bytes) +
                                      (s1.pull_bytes - s0.pull_bytes)) /
                  1e6;
  if (stalled_units > 0) {
    // Stage-in stall: the units that missed the deadline are cancelled
    // and counted as failed; shutting the pilots down ends their
    // attempts. The run stops after this campaign.
    out.stalled = true;
    cancel_unfinished(svc, c);
    svc.shutdown();
    c.log.wait_for(c.book.size(), now_ns() + 10 * kSecond);
  }

  r.attempted = c.book.size();
  r.failed = c.check(r);
  std::size_t bad_objects = 0;
  for (const std::string& id : staged) {
    const std::optional<std::string> bytes = store.get(id);
    if (!bytes || pa::store::content_id(*bytes) != id) {
      ++bad_objects;
    }
  }
  if (bad_objects > 0) {
    r.error(std::to_string(bad_objects) +
            " staged objects do not read back under their content id");
  }
  if (traced) {
    report_layers(c, base, &stack->fleet, agents, warm,
                  c.book.size(), out.units, r);
    r.add("store.put_ms_per_mb",
          per(out.put_s * 1e3, out.put_bytes / 1e6), "ms");
    std::vector<double> stage = c.trace->stage_ms();
    r.add("store.stage_ms_p50", quantile(stage, 0.5), "ms");
    r.add("store.stage_ms_p99", quantile(stage, 0.99), "ms");
    const double hits = static_cast<double>(s1.ensure_hits - s0.ensure_hits);
    const double misses =
        static_cast<double>(s1.ensure_misses - s0.ensure_misses);
    r.add("store.ensure_hit_ratio", per(hits, hits + misses), "ratio");
    r.add("store.push_mb",
          static_cast<double>(s1.push_bytes - s0.push_bytes) / 1e6, "MB");
    r.add("store.peer_mb",
          static_cast<double>(s1.peer_bytes - s0.peer_bytes) / 1e6, "MB");
    r.add("store.peer_fallbacks",
          static_cast<double>(s1.peer_fallbacks - s0.peer_fallbacks),
          "count");
    r.add("store.pull_retries",
          static_cast<double>(s1.pull_retries - s0.pull_retries), "count");
    r.add("store.stage_timeouts", static_cast<double>(stalled_units),
          "count");
    if (!o.trace_out.empty()) {
      c.trace->write(o.trace_out, warm, c.book.size());
    }
  }
  return out;
}

}  // namespace

Result run_farm_backlog(const Options& o) {
  return run_campaigns(
      o, o.seconds / kFarmSecondsPerCampaign,
      [&](bool traced, int) { return farm_campaign(o, traced); },
      [](const std::vector<Campaign>&, Result&, bool) {});
}

Result run_ensemble_durable(const Options& o) {
  return run_campaigns(
      o, o.seconds / kEnsembleSecondsPerCampaign,
      [&](bool traced, int index) {
        return ensemble_campaign(o, traced, index);
      },
      [](const std::vector<Campaign>&, Result&, bool) {});
}

Result run_stage_farm(const Options& o) {
  return run_campaigns(
      o, kStageCampaigns,
      [&](bool traced, int index) { return stage_campaign(o, traced, index); },
      [](const std::vector<Campaign>& runs, Result& r, bool traced) {
        if (traced) {
          return;
        }
        double put_bytes = 0.0, put_s = 0.0, staged = 0.0, stage_s = 0.0;
        for (const Campaign& c : runs) {
          put_bytes += c.put_bytes;
          put_s += c.put_s;
          staged += c.staged_mb;
          stage_s += c.stage_s;
        }
        r.add("put_mb_per_s", per(put_bytes / 1e6, put_s), "MB/s");
        r.add("stage_mb_per_s", per(staged, stage_s), "MB/s");
      });
}

}  // namespace perfbench
