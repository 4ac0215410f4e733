/// E14 — Wire-protocol cost of the manager↔agent split.
///
/// The paper's P* model puts an explicit coordination channel between the
/// Pilot-Manager and its agents; this binary prices that channel:
///  * framing throughput — encode + CRC + incremental decode, no I/O;
///  * message round-trip latency over InProcTransport and TcpTransport
///    (loopback sockets), the floor under every manager↔agent exchange;
///  * end-to-end units/s of a PilotComputeService driven through
///    RemoteRuntime (InProc and TCP) versus the in-process LocalRuntime
///    baseline — the protocol overhead an application actually observes;
///  * the manager's own heartbeat RTT histogram and wire counters,
///    exported with --metrics-out alongside the "pcs.*"/"wm.*" series;
///  * peer-dial setup latency — the one-time cost the token-brokered
///    data plane pays when one agent first dials another (connect +
///    first-frame round trip), reported as p50/p99 so E17's lazy-dial
///    design can be priced against the per-transfer win.

#include <atomic>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "pa/check/mutex.h"
#include "pa/common/stats.h"
#include "pa/common/table.h"
#include "pa/common/time_utils.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/net/inproc_transport.h"
#include "pa/net/message.h"
#include "pa/net/tcp_transport.h"
#include "pa/net/wire.h"
#include "pa/obs/metrics.h"
#include "pa/rt/local_runtime.h"
#include "pa/rt/remote_runtime.h"

namespace {

using namespace pa;  // NOLINT

// --- 1. framing throughput --------------------------------------------------

void bench_framing(Table& table, std::size_t payload_bytes, int frames) {
  const std::string payload(payload_bytes, 'x');
  std::string stream;
  stream.reserve((payload_bytes + net::kFrameHeaderBytes) * frames);

  Stopwatch encode_watch;
  for (int i = 0; i < frames; ++i) {
    net::append_frame(stream, payload);
  }
  const double encode_s = encode_watch.elapsed();

  net::FrameDecoder decoder;
  std::string out;
  int decoded = 0;
  Stopwatch decode_watch;
  // Feed in 64 KiB chunks, like a socket read loop.
  constexpr std::size_t kChunk = 64 * 1024;
  for (std::size_t off = 0; off < stream.size(); off += kChunk) {
    decoder.feed(stream.data() + off,
                 std::min(kChunk, stream.size() - off));
    while (decoder.next(out) == net::FrameDecoder::Status::kFrame) {
      ++decoded;
    }
  }
  const double decode_s = decode_watch.elapsed();
  if (decoded != frames) {
    std::cerr << "framing bench decoded " << decoded << "/" << frames << "\n";
  }

  const double mb = static_cast<double>(stream.size()) / 1e6;
  table.add_row({static_cast<std::int64_t>(payload_bytes),
                 static_cast<std::int64_t>(frames),
                 mb / encode_s,
                 mb / decode_s,
                 static_cast<double>(frames) / decode_s / 1e6});
}

// --- 2. transport round-trip latency ----------------------------------------

/// Echo `rounds` one-frame messages and record full round-trip times.
void bench_rtt(Table& table, net::Transport& transport,
               const std::string& label, const std::string& endpoint,
               int rounds) {
  const std::string listen_endpoint =
      transport.listen(endpoint, [](const net::ConnectionPtr& conn) {
        net::ConnectionHandlers h;
        h.on_message = [conn](const std::string& payload) {
          std::string frame;
          net::append_frame(frame, payload);
          conn->send(frame);
        };
        return h;
      });

  check::Mutex mu{check::LockRank::kLeaf, "bench.rtt"};
  check::CondVar cv;
  int pending = 0;
  net::ConnectionHandlers h;
  h.on_message = [&](const std::string&) {
    check::MutexLock lock(mu);
    --pending;
    cv.notify_one();
  };
  net::ConnectionPtr client = transport.connect(listen_endpoint, h);

  SampleSet rtt;
  std::string frame;
  net::append_frame(frame, std::string(128, 'p'));
  for (int i = 0; i < rounds; ++i) {
    {
      check::MutexLock lock(mu);
      ++pending;
    }
    const double start = wall_seconds();
    client->send(frame);
    check::MutexLock lock(mu);
    while (pending > 0) {
      cv.wait(lock);
    }
    rtt.add((wall_seconds() - start) * 1e6);
  }
  client->close();

  table.add_row({label, static_cast<std::int64_t>(rounds),
                 rtt.percentile(50.0), rtt.percentile(95.0),
                 rtt.percentile(99.0), rtt.mean()});
}

// --- 2b. peer-dial setup latency ---------------------------------------------

/// Price of the data plane's lazy peer dial: a fresh connect to an
/// already-listening peer followed by one offer-sized frame and its
/// acknowledgement. This is the latency a grant's FIRST chunk pays
/// before the cached channel takes over, so the tail (p99) matters more
/// than the mean — a slow dial delays exactly one transfer, but the
/// token TTL has to cover it.
void bench_peer_dial(Table& table, net::Transport& transport,
                     const std::string& label, const std::string& endpoint,
                     int dials) {
  // The "source agent" side: accept, echo the first frame back (the
  // shape of a kPeerOffer -> first kPeerChunk exchange).
  const std::string listen_endpoint =
      transport.listen(endpoint, [](const net::ConnectionPtr& conn) {
        net::ConnectionHandlers h;
        h.on_message = [conn](const std::string& payload) {
          std::string frame;
          net::append_frame(frame, payload);
          conn->send(frame);
        };
        return h;
      });

  check::Mutex mu{check::LockRank::kLeaf, "bench.peer_dial"};
  check::CondVar cv;
  int pending = 0;

  std::string offer;
  net::append_frame(offer, std::string(256, 'o'));

  SampleSet setup;
  for (int i = 0; i < dials; ++i) {
    net::ConnectionHandlers h;
    h.on_message = [&](const std::string&) {
      check::MutexLock lock(mu);
      --pending;
      cv.notify_one();
    };
    {
      check::MutexLock lock(mu);
      ++pending;
    }
    const double start = wall_seconds();
    net::ConnectionPtr conn = transport.connect(listen_endpoint, h);
    conn->send(offer);
    {
      check::MutexLock lock(mu);
      while (pending > 0) {
        cv.wait(lock);
      }
    }
    setup.add((wall_seconds() - start) * 1e6);
    conn->close();
  }

  table.add_row({label, static_cast<std::int64_t>(dials),
                 setup.percentile(50.0), setup.percentile(95.0),
                 setup.percentile(99.0), setup.mean()});
}

// --- 3. end-to-end units/s through the service ------------------------------

struct Throughput {
  double units_per_s = 0.0;
  std::uint64_t done = 0;
};

Throughput run_units(core::PilotComputeService& service, int units) {
  std::atomic<int> executed{0};
  Stopwatch watch;
  for (int i = 0; i < units; ++i) {
    core::ComputeUnitDescription d;
    d.work = [&executed]() { executed.fetch_add(1); };
    service.submit_unit(d);
  }
  service.wait_all_units(600.0);
  const double elapsed = watch.elapsed();
  return {static_cast<double>(executed.load()) / elapsed,
          service.metrics().units_done};
}

core::PilotDescription pilot_desc(const std::string& url, int nodes) {
  core::PilotDescription d;
  d.resource_url = url;
  d.nodes = nodes;
  d.walltime = 1e9;
  return d;
}

/// Agents created by the launcher, kept alive for the run.
struct Farm {
  explicit Farm(net::Transport& transport) : transport(transport) {}
  net::Transport& transport;
  check::Mutex mu{check::LockRank::kLeaf, "bench.farm"};
  std::vector<std::unique_ptr<rt::AgentEndpoint>> agents PA_GUARDED_BY(mu);
};

/// Knobs for the batching layer (E14e sweeps them; everything else uses
/// the shipped defaults).
struct RemoteBenchOptions {
  net::BatchFlusherConfig flusher;  ///< manager dispatch + agent outbox
  int queue_factor = rt::AgentEndpointConfig{}.queue_factor;
};

Throughput bench_remote(net::Transport& transport,
                        const std::string& listen_endpoint, int cores,
                        int units, obs::MetricsRegistry* metrics,
                        double* heartbeat_wait_s = nullptr,
                        const RemoteBenchOptions& options = {}) {
  Farm farm(transport);
  rt::RemoteRuntimeConfig config;
  config.listen_endpoint = listen_endpoint;
  config.heartbeat_interval_seconds = 0.05;
  config.metrics = metrics;
  config.flusher = options.flusher;
  std::unique_ptr<rt::RemoteRuntime> runtime;
  config.launcher = [&](const std::string& pilot_id,
                        const std::string& endpoint) {
    rt::AgentEndpointConfig agent_config;
    agent_config.flusher = options.flusher;
    agent_config.queue_factor = options.queue_factor;
    auto agent = std::make_unique<rt::AgentEndpoint>(
        transport, endpoint, pilot_id, runtime->payloads(), agent_config);
    check::MutexLock lock(farm.mu);
    farm.agents.push_back(std::move(agent));
  };
  runtime = std::make_unique<rt::RemoteRuntime>(transport, std::move(config));
  core::PilotComputeService service(*runtime, "backfill");

  core::Pilot pilot = service.submit_pilot(pilot_desc("remote://bench", cores));
  pilot.wait_active(30.0);
  Throughput result = run_units(service, units);
  if (heartbeat_wait_s != nullptr) {
    // Let a few heartbeat round-trips land so the RTT histogram has
    // samples even on fast runs.
    const double deadline = wall_seconds() + *heartbeat_wait_s;
    while (wall_seconds() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  return result;
}

}  // namespace

/// Parses `--assert-remote-ratio <x>` (or `=x`). Returns a negative value
/// when the flag is absent.
double assert_remote_ratio(int argc, char** argv) {
  const std::string flag = "--assert-remote-ratio";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == flag && i + 1 < argc) {
      return std::stod(argv[i + 1]);
    }
    if (arg.rfind(flag + "=", 0) == 0) {
      return std::stod(arg.substr(flag.size() + 1));
    }
  }
  return -1.0;
}

int main(int argc, char** argv) {
  const std::string metrics_path = pa::bench::metrics_out_path(argc, argv);
  const double min_remote_ratio = assert_remote_ratio(argc, argv);
  pa::bench::print_header("E14", "wire-protocol cost of the manager↔agent "
                                 "split (pa::net + RemoteRuntime)");

  // 1. Framing.
  Table framing("E14a: framing throughput (encode = append_frame + CRC32, "
                "decode = FrameDecoder over 64 KiB chunks)");
  framing.set_columns({Column{"payload_B", 0, true},
                       Column{"frames", 0, true},
                       Column{"encode_MB_s", 1, true},
                       Column{"decode_MB_s", 1, true},
                       Column{"decode_Mframes_s", 3, true}});
  bench_framing(framing, 64, 200000);
  bench_framing(framing, 1024, 100000);
  bench_framing(framing, 64 * 1024, 4000);
  framing.print(std::cout);

  // 2. Round-trip latency.
  Table rtt("E14b: one-frame echo round-trip latency (microseconds)");
  rtt.set_columns({Column{"transport", 0, true},
                   Column{"rounds", 0, true},
                   Column{"p50_us", 1, true},
                   Column{"p95_us", 1, true},
                   Column{"p99_us", 1, true},
                   Column{"mean_us", 1, true}});
  {
    net::InProcTransport transport;
    bench_rtt(rtt, transport, "inproc", "inproc://echo", 5000);
    transport.stop();
  }
  if (net::tcp_loopback_available()) {
    net::TcpTransport transport;
    bench_rtt(rtt, transport, "tcp-loopback", "127.0.0.1:0", 5000);
    transport.stop();
  } else {
    std::cout << "(TCP loopback unavailable; skipping socket RTT)\n";
  }
  rtt.print(std::cout);

  // 2b. Peer-dial setup latency (the E17 data plane's lazy dial).
  Table dial("E14f: peer-dial setup latency — fresh connect + one "
             "offer-frame round trip (microseconds)");
  dial.set_columns({Column{"transport", 0, true},
                    Column{"dials", 0, true},
                    Column{"p50_us", 1, true},
                    Column{"p95_us", 1, true},
                    Column{"p99_us", 1, true},
                    Column{"mean_us", 1, true}});
  {
    net::InProcTransport transport;
    bench_peer_dial(dial, transport, "inproc", "inproc://peer-src", 2000);
    transport.stop();
  }
  if (net::tcp_loopback_available()) {
    net::TcpTransport transport;
    bench_peer_dial(dial, transport, "tcp-loopback", "127.0.0.1:0", 1000);
    transport.stop();
  } else {
    std::cout << "(TCP loopback unavailable; skipping socket peer-dial)\n";
  }
  dial.print(std::cout);

  // 3. End-to-end service throughput: LocalRuntime baseline vs
  // RemoteRuntime over each transport.
  const int cores = std::max(2u, std::thread::hardware_concurrency() / 2);
  const int units = 2000;
  obs::MetricsRegistry metrics;

  Table e2e("E14c: PilotComputeService units/s, no-op payloads (" +
            std::to_string(units) + " units, " + std::to_string(cores) +
            "-core pilot, 3 trials: local median, tcp best)");
  e2e.set_columns({Column{"runtime", 0, true},
                   Column{"units_done", 0, true},
                   Column{"units_per_s", 0, true},
                   Column{"overhead_pct", 1, true}});

  // A single 2000-unit trial finishes in tens of milliseconds, which is
  // well inside scheduler-noise territory on a small box. Three trials
  // per configuration; the baseline takes the median (robust against a
  // lucky spike inflating the denominator) and the remote side takes the
  // best (contention noise is one-sided downward — the gate measures
  // protocol capability, and a real regression to the per-unit protocol
  // is a 2× drop that no trial recovers).
  const auto median3 = [](double a, double b, double c) {
    return std::max(std::min(a, b), std::min(std::max(a, b), c));
  };

  double local_rate = 0.0;
  {
    double rates[3];
    std::uint64_t done = 0;
    for (double& rate : rates) {
      rt::LocalRuntime runtime;
      core::PilotComputeService service(runtime, "backfill");
      service.submit_pilot(pilot_desc("local://bench", cores))
          .wait_active(30.0);
      Throughput t = run_units(service, units);
      rate = t.units_per_s;
      done = t.done;
      std::cerr << "  [e14c] local trial " << rate << " units/s\n";
    }
    local_rate = median3(rates[0], rates[1], rates[2]);
    e2e.add_row({std::string("local (baseline)"),
                 static_cast<std::int64_t>(done), local_rate, 0.0});
  }
  {
    net::InProcTransport transport;
    Throughput t = bench_remote(transport, "inproc://manager", cores, units,
                                nullptr);
    e2e.add_row({std::string("remote/inproc"),
                 static_cast<std::int64_t>(t.done), t.units_per_s,
                 100.0 * (local_rate / t.units_per_s - 1.0)});
    transport.stop();
  }
  double tcp_rate = -1.0;
  if (net::tcp_loopback_available()) {
    double rates[3];
    std::uint64_t done = 0;
    for (int trial = 0; trial < 3; ++trial) {
      net::TcpTransport transport;
      const bool last = trial == 2;
      double settle = 0.5;  // collect heartbeat RTTs for the export
      // Telemetry only on the final trial so the E14d table and the
      // --metrics-out export describe one run, not a triple-counted sum.
      Throughput t =
          bench_remote(transport, "127.0.0.1:0", cores, units,
                       last ? &metrics : nullptr, last ? &settle : nullptr);
      rates[trial] = t.units_per_s;
      done = t.done;
      std::cerr << "  [e14c] tcp trial " << t.units_per_s << " units/s\n";
      transport.stop();
    }
    tcp_rate = std::max(rates[0], std::max(rates[1], rates[2]));
    e2e.add_row({std::string("remote/tcp"),
                 static_cast<std::int64_t>(done), tcp_rate,
                 100.0 * (local_rate / tcp_rate - 1.0)});
  }
  e2e.print(std::cout);

  // 3b. Sensitivity of the bulk protocol: how units/s over InProc responds
  // to the flusher's batch bound and the pilot's dispatch depth (the
  // agent's queue_factor: queue capacity = factor × cores, which is also
  // the most units the service keeps in flight on the pilot).
  // max_batch=1 approximates the old one-message-per-unit protocol;
  // queue_factor=1 caps in-flight work at the agent's core count.
  Table sweep("E14e: batching sensitivity, remote/inproc units/s");
  sweep.set_columns({Column{"max_batch", 0, true},
                     Column{"queue_factor", 0, true},
                     Column{"units_per_s", 0, true},
                     Column{"vs_local_pct", 1, true}});
  struct SweepPoint {
    std::size_t max_batch;
    int queue_factor;
  };
  const SweepPoint points[] = {
      {1, 16}, {8, 16}, {32, 16}, {128, 16}, {32, 1}, {32, 4}};
  for (const SweepPoint& p : points) {
    RemoteBenchOptions options;
    options.flusher.max_batch = p.max_batch;
    options.queue_factor = p.queue_factor;
    net::InProcTransport transport;
    std::cerr << "  [sweep] max_batch=" << p.max_batch
              << " queue_factor=" << p.queue_factor << "..." << std::flush;
    Throughput t = bench_remote(transport, "inproc://sweep", cores, units,
                                nullptr, nullptr, options);
    std::cerr << " " << static_cast<std::int64_t>(t.units_per_s)
              << " units/s\n";
    sweep.add_row({static_cast<std::int64_t>(p.max_batch),
                   static_cast<std::int64_t>(p.queue_factor), t.units_per_s,
                   100.0 * t.units_per_s / local_rate});
    transport.stop();
  }
  sweep.print(std::cout);

  // 4. The manager's own wire telemetry (TCP run above).
  Table wire("E14d: manager wire telemetry (remote/tcp run)");
  wire.set_columns({Column{"metric", 0, true}, Column{"value", 3, false}});
  for (const auto& [name, value] : metrics.counters()) {
    if (name.rfind("net.", 0) == 0) {
      wire.add_row({name, static_cast<std::int64_t>(value)});
    }
  }
  for (const auto& [name, value] : metrics.gauges()) {
    if (name.rfind("net.", 0) == 0) {
      wire.add_row({name, value});
    }
  }
  for (const auto& [name, hist] : metrics.histograms()) {
    if (name.rfind("net.", 0) == 0) {
      wire.add_row({name + ".count",
                    static_cast<std::int64_t>(hist.count())});
      wire.add_row({name + ".mean", hist.mean()});
      wire.add_row({name + ".max", hist.max()});
    }
  }
  wire.print(std::cout);

  pa::bench::write_metrics_file(metrics_path, &metrics);

  // CI guard: the bulk protocol must keep remote/tcp within a bounded
  // factor of the in-process baseline on no-op units.
  if (min_remote_ratio > 0.0) {
    if (tcp_rate < 0.0) {
      std::cout << "--assert-remote-ratio: TCP loopback unavailable; "
                   "skipping assertion\n";
    } else {
      const double ratio = tcp_rate / local_rate;
      std::cout << "remote/tcp ratio vs local: " << ratio << " (required >= "
                << min_remote_ratio << ")\n";
      if (ratio < min_remote_ratio) {
        std::cerr << "FAIL: remote/tcp units/s is " << ratio
                  << "x local, below the required " << min_remote_ratio
                  << "x\n";
        return 1;
      }
    }
  }
  return 0;
}
