#include "pipeline_run.h"

#include <algorithm>
#include <thread>

#include "core/journal.h"
#include "msg/tcp.h"
#include "stats.h"
#include "topo/discover.h"

namespace rtbench {

using namespace numastream;

namespace {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Runs `body` and records it as one span named `name` when tracing.
template <typename Body>
auto spanned(SpanStore* spans, const char* name, Body&& body) {
  const std::int64_t t0 = spans != nullptr ? spans->now_ns() : 0;
  auto result = body();
  if (spans != nullptr) {
    spans->record(name, 0, t0, spans->now_ns());
  }
  return result;
}

}  // namespace

RunResult run_pipeline(const RunSpec& spec) {
  const Workload& w = *spec.workload;
  RunResult out;
  // Benchmark-side preparation, outside the set-up clock.
  trim_heap();
  RssSampler rss;
  const Clock::time_point start = Clock::now();

  auto topo = spanned(spec.spans, "topo.discover", [] { return discover_topology(); });
  if (!topo.ok()) {
    out.status = topo.status();
    return out;
  }
  // Any nonzero id names the session; both ends must agree on it.
  const std::uint64_t session = (spec.seed << 1) | 1;
  const std::string host = topo.value().hostname();
  const NodeConfig tx_config = sender_config(w, host, session);
  const NodeConfig rx_config = receiver_config(w, host, session);
  for (const NodeConfig* config : {&tx_config, &rx_config}) {
    if (Status s = config->validate(topo.value()); !s.is_ok()) {
      out.status = s;
      return out;
    }
  }

  auto tcp = TcpListener::bind("127.0.0.1", 0);
  if (!tcp.ok()) {
    out.status = tcp.status();
    return out;
  }
  const std::uint16_t port = tcp.value()->port();
  TimedListener timed(*tcp.value(), spec.spans);
  Listener& listener =
      spec.spans != nullptr || spec.time_setup ? static_cast<Listener&>(timed)
                                               : *tcp.value();

  Ledger ledger(w.streams, w.window);
  RingSource ring_source(*spec.ring, ledger, spec.stop);
  VerifyingSink verifier(*spec.ring, ledger);
  std::optional<TracingSource> traced_source;
  std::optional<TracingSink> traced_sink;
  if (spec.spans != nullptr) {
    traced_source.emplace(ring_source, *spec.spans);
    traced_sink.emplace(verifier, *spec.spans);
  }
  ChunkSource& source = traced_source ? static_cast<ChunkSource&>(*traced_source)
                                      : ring_source;
  ChunkSink& sink = traced_sink ? static_cast<ChunkSink&>(*traced_sink) : verifier;

  SpanStore* spans = spec.spans;
  const ConnectFn connect = [port, spans]() -> Result<std::unique_ptr<ByteStream>> {
    if (spans == nullptr) {
      return tcp_connect("127.0.0.1", port);
    }
    const std::int64_t t0 = spans->now_ns();
    auto stream = tcp_connect("127.0.0.1", port);
    spans->record("connect", 0, t0, spans->now_ns());
    if (!stream.ok()) {
      return stream;
    }
    return std::unique_ptr<ByteStream>(std::make_unique<TracingByteStream>(
        std::move(stream).value(), *spans, /*data_writes=*/true));
  };

  // In-memory journals on both sides, used only by session workloads.
  ResumeCounters resume_counters;
  MemoryJournalMedia tx_media;
  MemoryJournalMedia rx_media;
  SenderJournal tx_journal(tx_media, session, &resume_counters);
  ReceiverJournal rx_journal(rx_media, session, &resume_counters);
  if (w.session) {
    for (Status s : {tx_journal.recover(), rx_journal.recover()}) {
      if (!s.is_ok()) {
        out.status = s;
        return out;
      }
    }
  }
  const ResumeHooks tx_resume{.sender_journal = w.session ? &tx_journal : nullptr,
                              .counters = &resume_counters};
  const ResumeHooks rx_resume{.receiver_journal = w.session ? &rx_journal : nullptr,
                              .counters = &resume_counters};
  FaultCounters tx_faults;
  FaultCounters rx_faults;
  OverloadCounters overload;

  const double cpu0 = process_cpu_seconds();
  Result<ReceiverStats> rx_stats = internal_error("receiver did not run");
  std::thread receiver_thread([&] {
    StreamReceiver receiver(topo.value(), rx_config);
    rx_stats = spanned(spans, "receiver.run", [&] {
      return receiver.run(listener, sink, nullptr, &rx_faults,
                          OverloadHooks{.counters = &overload}, {}, {}, rx_resume);
    });
    if (!rx_stats.ok()) {
      tcp.value()->close();  // resets connections still queued for accept()
    }
  });
  Result<SenderStats> tx_stats = internal_error("sender did not run");
  std::thread sender_thread([&] {
    StreamSender sender(topo.value(), tx_config);
    tx_stats = spanned(spans, "sender.run", [&] {
      return sender.run(source, connect, nullptr, &tx_faults,
                        OverloadHooks{.counters = &overload}, {}, {}, tx_resume);
    });
    if (!tx_stats.ok()) {
      tcp.value()->close();  // a receiver parked in accept() must not wait forever
    }
  });
  sender_thread.join();
  receiver_thread.join();
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.peak_rss_mib = rss.stop();

  if (!tx_stats.ok()) {
    out.status = tx_stats.status();
  } else if (!rx_stats.ok()) {
    out.status = rx_stats.status();
  }
  if (tx_stats.ok()) {
    out.tx = tx_stats.value();
  }
  if (rx_stats.ok()) {
    out.rx = rx_stats.value();
  }
  out.tx_faults = tx_faults.snapshot();
  out.rx_faults = rx_faults.snapshot();
  out.overload = overload.snapshot();
  out.resume = resume_counters.snapshot();
  out.delivery = ledger.report();
  out.latencies_ms = verifier.latencies_ms();
  out.delivered_bytes = verifier.delivered_bytes();

  const auto first = ledger.first_issue();
  const auto last = ledger.last_delivery();
  if (first && last) {
    out.wall_s = seconds_between(*first, *last);
  }
  if (spec.time_setup) {
    const auto accepted = timed.accepted(static_cast<std::size_t>(w.receive));
    if (first && accepted) {
      out.setup_s = seconds_between(start, std::max(*first, *accepted));
    }
  }
  return out;
}

}  // namespace rtbench
