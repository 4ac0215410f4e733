#include "traced.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

namespace {

/// Times one call into the decorated interface and records it on scope
/// exit, so a throwing call is still counted.
class Timed {
 public:
  Timed(Trace& trace, Call call, std::uint64_t items = 1)
      : trace_(trace), call_(call), items_(items), start_(now_ns()) {}
  ~Timed() { trace_.record(call_, start_, now_ns(), items_); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Trace& trace_;
  const Call call_;
  const std::uint64_t items_;
  const std::int64_t start_;
};

/// Connection decorator; sends are timed under the owning side's kind.
class TracedConnection final : public pa::net::Connection {
 public:
  TracedConnection(pa::net::ConnectionPtr inner, std::shared_ptr<Trace> trace,
                   Call send_call)
      : inner_(std::move(inner)), trace_(std::move(trace)),
        send_call_(send_call) {}

  bool send(std::string frame) override {
    Timed timed(*trace_, send_call_);
    return inner_->send(std::move(frame));
  }
  bool send_gather(std::string_view frames,
                   std::uint64_t message_count) override {
    Timed timed(*trace_, send_call_, message_count);
    return inner_->send_gather(frames, message_count);
  }
  void close() override { inner_->close(); }
  bool is_open() const override { return inner_->is_open(); }
  pa::net::ConnectionStats stats() const override { return inner_->stats(); }

 private:
  const pa::net::ConnectionPtr inner_;
  const std::shared_ptr<Trace> trace_;
  const Call send_call_;
};

/// Wraps on_message so each delivered frame is timed. The transport drops
/// handlers when a connection closes, which releases `keep`.
pa::net::ConnectionHandlers timed_handlers(pa::net::ConnectionHandlers h,
                                           std::shared_ptr<Trace> trace,
                                           Call call,
                                           pa::net::ConnectionPtr keep) {
  if (h.on_message) {
    h.on_message = [inner = std::move(h.on_message), trace = std::move(trace),
                    call, keep = std::move(keep)](const std::string& payload) {
      Timed timed(*trace, call);
      inner(payload);
    };
  }
  return h;
}

}  // namespace

const char* hop_name(Hop hop) {
  switch (hop) {
    case kSubmit: return "core.bind";
    case kExec: return "rt.dispatch";
    case kStart: return "payload";
    case kEnd: return "rt.complete";
    case kDone: return "core.finalize";
    default: return "unit";
  }
}

const char* call_name(Call call) {
  switch (call) {
    case kSubmitCall: return "core.submit_units";
    case kSendManager: return "net.send.manager";
    case kSendAgent: return "net.send.agent";
    case kHandlerManager: return "net.handler.manager";
    case kHandlerAgent: return "net.handler.agent";
    case kJournalEmit: return "journal.emit";
    case kStage: return "store.stage";
    case kPut: return "store.put";
    default: return "?";
  }
}

Trace::Trace(std::size_t units, std::size_t max_spans)
    : epoch_(now_ns()), units_(units), max_spans_(max_spans) {
  for (auto& slots : hops_) {
    slots = std::make_unique<std::atomic<std::int64_t>[]>(units);
    for (std::size_t i = 0; i < units; ++i) {
      slots[i].store(0, std::memory_order_relaxed);
    }
  }
  spans_.reserve(max_spans_);
}

void Trace::stamp(Hop hop, long index) { stamp_at(hop, index, now_ns()); }

void Trace::stamp_at(Hop hop, long index, std::int64_t at_ns) {
  if (index >= 0 && static_cast<std::size_t>(index) < units_) {
    hops_[hop][static_cast<std::size_t>(index)].store(
        at_ns, std::memory_order_relaxed);
  }
}

std::int64_t Trace::hop_at(Hop hop, std::size_t index) const {
  return index < units_ ? hops_[hop][index].load(std::memory_order_relaxed)
                        : 0;
}

void Trace::record(Call call, std::int64_t start_ns, std::int64_t end_ns,
                   std::uint64_t items) {
  Totals& t = totals_[call];
  t.calls.fetch_add(1, std::memory_order_relaxed);
  t.items.fetch_add(items, std::memory_order_relaxed);
  t.ns.fetch_add(end_ns - start_ns, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (call == kStage) {
    stage_ms_.push_back(static_cast<double>(end_ns - start_ns) / 1e6);
  }
  if (spans_.size() < max_spans_) {
    spans_.push_back({call, start_ns, end_ns});
  }
}

Trace::CallTotals Trace::totals(Call call) const {
  const Totals& t = totals_[call];
  return {t.calls.load(), t.items.load(), t.ns.load()};
}

std::vector<double> Trace::stage_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stage_ms_;
}

void Trace::reset_calls() {
  for (Totals& t : totals_) {
    t.calls.store(0);
    t.items.store(0);
    t.ns.store(0);
  }
  std::lock_guard<std::mutex> lock(mu_);
  stage_ms_.clear();
}

void Trace::write(const std::string& path, std::size_t first_unit,
                  std::size_t last_unit) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot write span file " + path);
  }
  std::uint64_t id = 0;
  const auto emit = [&](const char* name, std::int64_t start,
                        std::int64_t end, long parent, long unit) {
    out << "{\"id\":" << id++ << ",\"name\":\"" << name
        << "\",\"start_ns\":" << (start - epoch_)
        << ",\"end_ns\":" << (end - epoch_) << ",\"parent\":" << parent
        << ",\"unit\":" << unit << "}\n";
  };
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  for (const Span& s : spans) {
    emit(call_name(s.call), s.start, s.end, -1, -1);
  }
  // One root span per unit (submit -> final) with its hops as children,
  // for the first kUnitTrees units of the range.
  const std::size_t last = std::min({last_unit, units_, first_unit + kUnitTrees});
  for (std::size_t u = first_unit; u < last; ++u) {
    const std::int64_t submit = hop_at(kSubmit, u);
    const std::int64_t last_hop = hop_at(kFinal, u);
    if (submit == 0 || last_hop == 0) {
      continue;
    }
    const long root = static_cast<long>(id);
    emit("unit", submit, last_hop, -1, static_cast<long>(u));
    for (int h = kSubmit; h < kFinal; ++h) {
      const std::int64_t a = hop_at(static_cast<Hop>(h), u);
      const std::int64_t b = hop_at(static_cast<Hop>(h + 1), u);
      if (a != 0 && b != 0) {
        emit(hop_name(static_cast<Hop>(h)), a, b, root, static_cast<long>(u));
      }
    }
  }
}

void TracedRuntime::execute_unit(
    const std::string& pilot_id,
    const pa::core::ComputeUnitDescription& description,
    const std::string& unit_id, std::function<void(bool)> on_done) {
  const long index = unit_index(description.name);
  trace_->stamp(kExec, index);
  inner_.execute_unit(
      pilot_id, description, unit_id,
      [trace = trace_, index, done = std::move(on_done)](bool success) {
        trace->stamp(kDone, index);
        done(success);
      });
}

std::string TracedTransport::listen(const std::string& endpoint,
                                    pa::net::AcceptHandler on_accept) {
  const Call send_call = side_ == Side::kManager ? kSendManager : kSendAgent;
  const Call handler_call =
      side_ == Side::kManager ? kHandlerManager : kHandlerAgent;
  return inner_.listen(
      endpoint, [conns = conns_, trace = trace_, send_call, handler_call,
                 on_accept = std::move(on_accept)](
                    const pa::net::ConnectionPtr& conn) {
        auto wrapped =
            std::make_shared<TracedConnection>(conn, trace, send_call);
        {
          std::lock_guard<std::mutex> lock(conns->mu);
          conns->list.push_back(conn);
        }
        // The owner may hold only a weak reference until its handshake;
        // the wrapped handlers keep the decorator alive meanwhile.
        return timed_handlers(on_accept(wrapped), trace, handler_call,
                              wrapped);
      });
}

pa::net::ConnectionPtr TracedTransport::connect(
    const std::string& endpoint, pa::net::ConnectionHandlers handlers) {
  const Call send_call = side_ == Side::kManager ? kSendManager : kSendAgent;
  const Call handler_call =
      side_ == Side::kManager ? kHandlerManager : kHandlerAgent;
  pa::net::ConnectionPtr conn = inner_.connect(
      endpoint, timed_handlers(std::move(handlers), trace_, handler_call,
                               nullptr));
  {
    std::lock_guard<std::mutex> lock(conns_->mu);
    conns_->list.push_back(conn);
  }
  return std::make_shared<TracedConnection>(conn, trace_, send_call);
}

pa::net::ConnectionStats TracedTransport::stats() const {
  pa::net::ConnectionStats sum;
  std::lock_guard<std::mutex> lock(conns_->mu);
  for (const auto& weak : conns_->list) {
    if (pa::net::ConnectionPtr c = weak.lock()) {
      const pa::net::ConnectionStats s = c->stats();
      sum.bytes_in += s.bytes_in;
      sum.bytes_out += s.bytes_out;
      sum.messages_in += s.messages_in;
      sum.messages_out += s.messages_out;
      sum.send_rejected += s.send_rejected;
      sum.reconnects += s.reconnects;
    }
  }
  return sum;
}

void TracedJournalSink::pilot_submitted(
    const std::string& pilot_id, const pa::core::PilotDescription& description,
    int restarts_used, double time) {
  Timed timed(*trace_, kJournalEmit);
  inner_.pilot_submitted(pilot_id, description, restarts_used, time);
}

void TracedJournalSink::pilot_state(const std::string& pilot_id,
                                    pa::core::PilotState to, int total_cores,
                                    const std::string& site, double time) {
  Timed timed(*trace_, kJournalEmit);
  inner_.pilot_state(pilot_id, to, total_cores, site, time);
}

void TracedJournalSink::unit_submitted(
    const std::string& unit_id,
    const pa::core::ComputeUnitDescription& description, double time) {
  Timed timed(*trace_, kJournalEmit);
  inner_.unit_submitted(unit_id, description, time);
}

void TracedJournalSink::unit_bound(const std::string& unit_id,
                                   const std::string& pilot_id, double time) {
  Timed timed(*trace_, kJournalEmit);
  inner_.unit_bound(unit_id, pilot_id, time);
}

void TracedJournalSink::unit_state(const std::string& unit_id,
                                   pa::core::UnitState to, double time) {
  Timed timed(*trace_, kJournalEmit);
  inner_.unit_state(unit_id, to, time);
}

void TracedJournalSink::unit_requeued(const std::string& unit_id,
                                      double time) {
  Timed timed(*trace_, kJournalEmit);
  inner_.unit_requeued(unit_id, time);
}

void TracedJournalSink::data_placed(const std::string& data_unit,
                                    const std::string& site, double time) {
  Timed timed(*trace_, kJournalEmit);
  inner_.data_placed(data_unit, site, time);
}

void TracedDataService::stage_to_site(const std::string& du_id,
                                      const std::string& site,
                                      std::function<void()> done) {
  const std::int64_t start = now_ns();
  inner_.stage_to_site(
      du_id, site, [trace = trace_, start, done = std::move(done)]() {
        trace->record(kStage, start, now_ns());
        done();
      });
}

}  // namespace perfbench
