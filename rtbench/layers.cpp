#include "layers.h"

#include <atomic>
#include <thread>

#include "affinity/affinity.h"
#include "codec/codec.h"
#include "codec/frame.h"
#include "codec/xxhash.h"
#include "concurrency/bounded_queue.h"
#include "core/journal.h"
#include "data/chunk_pool.h"
#include "msg/message.h"
#include "msg/socket.h"
#include "msg/tcp.h"
#include "topo/discover.h"

namespace rtbench {

using namespace numastream;

namespace {

// Keeps results observable so the timed work cannot be folded away.
std::atomic<std::uint64_t> g_sink{0};

void keep(std::uint64_t v) { g_sink.fetch_add(v, std::memory_order_relaxed); }

/// Calls `op(i)` for i = 0, 1, ... until `budget_s` has passed (at least
/// once). Returns {operations, seconds}.
template <typename Op>
std::pair<std::uint64_t, double> timed(double budget_s, Op&& op) {
  const Clock::time_point t0 = Clock::now();
  const auto budget = std::chrono::duration<double>(budget_s);
  std::uint64_t n = 0;
  Clock::time_point now = t0;
  do {
    op(n++);
    now = Clock::now();
  } while (now - t0 < budget);
  return {n, std::chrono::duration<double>(now - t0).count()};
}

double mbps(std::uint64_t ops, std::size_t bytes_per_op, double seconds) {
  return static_cast<double>(ops) * static_cast<double>(bytes_per_op) / seconds / 1e6;
}

double ns_per(std::pair<std::uint64_t, double> r) {
  return r.second * 1e9 / static_cast<double>(r.first);
}

/// PushSocket -> PullSocket over a loopback TCP pair, one thread each,
/// `message` repeated for `budget_s`. Returns {messages/s, body MB/s}.
std::pair<double, double> socket_rate(const Message& message, double budget_s) {
  auto listener = TcpListener::bind("127.0.0.1", 0);
  if (!listener.ok()) {
    return {0, 0};
  }
  std::uint64_t received = 0;
  std::uint64_t body_bytes = 0;
  std::thread puller([&] {
    auto stream = listener.value()->accept();
    if (!stream.ok()) {
      return;
    }
    PullSocket pull(std::move(stream).value());
    while (true) {
      auto m = pull.recv();
      if (!m.ok() || m.value().end_of_stream) {
        return;
      }
      ++received;
      body_bytes += m.value().body.size();
    }
  });
  const Clock::time_point t0 = Clock::now();
  auto stream = tcp_connect("127.0.0.1", listener.value()->port());
  if (stream.ok()) {
    PushSocket push(std::move(stream).value());
    timed(budget_s, [&](std::uint64_t) { (void)push.send(message); });
    (void)push.finish(message.stream_id);
  } else {
    listener.value()->close();
  }
  puller.join();
  const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return {static_cast<double>(received) / seconds,
          static_cast<double>(body_bytes) / seconds / 1e6};
}

/// Cross-thread BoundedQueue handoff: four workload-sized messages circulate
/// between two threads through a pair of queues. Returns ns per push->pop.
double handoff_ns(std::size_t body_bytes, double budget_s) {
  BoundedQueue<Message> forward(8);
  BoundedQueue<Message> back(8);
  for (int i = 0; i < 4; ++i) {
    Message m;
    m.body.resize(body_bytes);
    (void)back.push(std::move(m));
  }
  std::thread echo([&] {
    while (auto m = forward.pop()) {
      if (m->end_of_stream) {
        return;
      }
      (void)back.push(std::move(*m));
    }
  });
  const auto r = timed(budget_s, [&](std::uint64_t) {
    auto m = back.pop();
    (void)forward.push(std::move(*m));
  });
  (void)forward.push(Message::end_of_stream_marker(0, 0));
  echo.join();
  return r.second * 1e9 / static_cast<double>(2 * r.first);
}

}  // namespace

std::map<std::string, double> measure_layers(const Workload& w, const Ring& ring,
                                             double budget_s) {
  std::map<std::string, double> out;
  const Codec* codec = codec_by_name(w.codec);
  const std::size_t raw = w.chunk_bytes();
  const auto entry = [&](std::uint64_t i) -> const Bytes& {
    return ring.entries[i % ring.size()];
  };
  // Inputs for the decode side, kept from the encode loops.
  const std::size_t keep_n = std::min<std::size_t>(ring.size(), 8);

  // ---- codec ----
  {
    Bytes dst(codec->max_compressed_size(raw));
    std::vector<Bytes> compressed;
    const auto r = timed(budget_s, [&](std::uint64_t i) {
      auto n = codec->compress(entry(i), dst);
      if (compressed.size() < keep_n && n.ok()) {
        compressed.emplace_back(dst.begin(), dst.begin() + static_cast<long>(n.value()));
      }
    });
    out["codec.compress_mbps"] = mbps(r.first, raw, r.second);
    Bytes plain(raw);
    const auto d = timed(budget_s, [&](std::uint64_t i) {
      auto n = codec->decompress(compressed[i % compressed.size()], plain);
      keep(n.ok() ? n.value() : 0);
    });
    out["codec.decompress_mbps"] = mbps(d.first, raw, d.second);
  }
  std::vector<Bytes> frames;
  {
    const auto r = timed(budget_s, [&](std::uint64_t i) {
      Bytes frame = encode_frame(*codec, entry(i));
      keep(frame.size());
      if (frames.size() < keep_n) {
        frames.push_back(std::move(frame));
      }
    });
    out["codec.frame_encode_mbps"] = mbps(r.first, raw, r.second);
    const auto d = timed(budget_s, [&](std::uint64_t i) {
      auto content = decode_frame_content(frames[i % frames.size()]);
      keep(content.ok() ? content.value().size() : 0);
    });
    out["codec.frame_decode_mbps"] = mbps(d.first, raw, d.second);
  }
  {
    const auto r32 = timed(budget_s, [&](std::uint64_t i) { keep(xxhash32(entry(i))); });
    out["codec.xxh32_mbps"] = mbps(r32.first, raw, r32.second);
    const auto r64 = timed(budget_s, [&](std::uint64_t i) { keep(xxhash64(entry(i))); });
    out["codec.xxh64_mbps"] = mbps(r64.first, raw, r64.second);
  }

  // ---- data ----
  {
    const auto r = timed(budget_s, [&](std::uint64_t i) {
      Bytes fresh(raw);  // value-initialised: every page written once
      keep(fresh[(i * 4096) % raw]);
    });
    out["data.alloc_first_touch_mbps"] = mbps(r.first, raw, r.second);
    ChunkPool pool(1, 2);
    out["data.pool_lease_ns"] = ns_per(timed(budget_s, [&](std::uint64_t i) {
      Bytes lease = pool.lease(0, raw);
      lease[0] = static_cast<std::uint8_t>(i);
      pool.recycle(0, std::move(lease));
    }));
    const auto g = timed(budget_s, [&](std::uint64_t i) {
      const std::uint64_t index = ring.size() + i;
      keep(TomoGenerator(ring.entry_config(index)).projection(index).size());
    });
    out["data.tomo_generate_mbps"] = mbps(g.first, raw, g.second);
  }

  // ---- topo / affinity ----
  {
    out["topo.discover_ms"] = ns_per(timed(budget_s, [&](std::uint64_t) {
                                keep(discover_topology().ok() ? 1 : 0);
                              })) / 1e6;
    auto topo = discover_topology();
    const CpuSet all = topo.ok() ? topo.value().all_cpus() : CpuSet::single(0);
    double pin_ns = 0;
    std::thread pinned([&] {
      pin_ns = ns_per(timed(budget_s, [&](std::uint64_t) {
        keep(pin_current_thread(all).ok() ? 1 : 0);
      }));
    });
    pinned.join();
    out["affinity.pin_us"] = pin_ns / 1e3;
  }

  // ---- msg: one data message of the workload's wire size ----
  Message message;
  message.stream_id = 0;
  message.sequence = 1;
  message.body = frames.front();
  const std::size_t body = message.body.size();
  {
    const auto e = timed(budget_s, [&](std::uint64_t) {
      keep(encode_message(message).size());
    });
    out["msg.encode_mbps"] = mbps(e.first, body, e.second);
    const Bytes wire = encode_message(message);
    const auto d = timed(budget_s, [&](std::uint64_t) {
      MessageDecoder decoder;
      decoder.feed(wire);
      auto m = decoder.next();
      keep(m.ok() ? m.value().body.size() : 0);
    });
    out["msg.decode_mbps"] = mbps(d.first, body, d.second);
    const auto [msgs, rate] = socket_rate(message, budget_s);
    out["msg.socket_msgs_per_s"] = msgs;
    out["msg.socket_mbps"] = rate;
  }

  // ---- concurrency ----
  out["concurrency.handoff_ns"] = handoff_ns(body, budget_s);

  // ---- core: session journal append ----
  {
    MemoryJournalMedia media;
    SenderJournal journal(media, 1);
    (void)journal.recover();
    out["core.journal_append_ns"] = ns_per(timed(budget_s, [&](std::uint64_t i) {
      (void)journal.record_sent(0, i, i * raw, 0, static_cast<std::uint32_t>(raw));
    }));
  }
  return out;
}

}  // namespace rtbench
