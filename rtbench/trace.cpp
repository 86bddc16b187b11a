#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "msg/message.h"

namespace rtbench {

using namespace numastream;

std::uint64_t chunk_span_id(std::uint32_t stream, std::uint64_t seq, bool control) {
  constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 40) - 1;
  return (control ? std::uint64_t{1} << 63 : 0) |
         (static_cast<std::uint64_t>(stream & 0x7FFFFFU) << 40) | (seq & kSeqMask);
}

std::uint64_t message_span_id(ByteSpan data) {
  if (data.size() < kMessageHeaderSize || load_le32(data.data()) != kMessageMagic) {
    return 0;
  }
  const std::uint16_t flags = load_le16(data.data() + 16);
  const bool control = (flags & ~kMessageFlagEndOfStream) != 0;
  return chunk_span_id(load_le32(data.data() + 4), load_le64(data.data() + 8), control);
}

std::uint64_t WireCursor::consume(const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    if (body_left_ > 0) {
      const auto take =
          static_cast<std::size_t>(std::min<std::uint64_t>(body_left_, size));
      body_left_ -= take;
      data += take;
      size -= take;
      continue;
    }
    const std::size_t take = std::min(size, kMessageHeaderSize - have_);
    std::memcpy(header_ + have_, data, take);
    have_ += take;
    data += take;
    size -= take;
    if (have_ == kMessageHeaderSize) {
      id_ = message_span_id(ByteSpan(header_, kMessageHeaderSize));
      body_left_ = id_ != 0 ? load_le64(header_ + 20) : 0;
      have_ = 0;
    }
  }
  return id_;
}

std::int64_t SpanStore::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
      .count();
}

void SpanStore::record(const char* name, std::uint64_t id, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t bytes) {
  const std::thread::id self = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] =
      threads_.emplace(self, static_cast<std::uint32_t>(threads_.size()));
  spans_.push_back(Span{name, id, start_ns, end_ns, bytes, it->second});
}

std::map<std::string, SpanStore::Totals> SpanStore::totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Totals> out;
  for (const Span& span : spans_) {
    Totals& t = out[span.name];
    ++t.calls;
    t.seconds += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    t.bytes += span.bytes;
  }
  return out;
}

std::size_t SpanStore::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanStore::write_csv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "name,id,thread,start_ns,end_ns,bytes\n");
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(file, "%s,%llu,%u,%lld,%lld,%llu\n", s.name,
                 static_cast<unsigned long long>(s.id), s.thread,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.bytes));
  }
  return std::fclose(file) == 0;
}

TracingByteStream::TracingByteStream(std::unique_ptr<ByteStream> inner,
                                     SpanStore& spans, bool data_writes)
    : inner_(std::move(inner)),
      spans_(spans),
      write_name_(data_writes ? "stream.write" : "control.write"),
      read_name_(data_writes ? "control.read" : "stream.read") {}

Status TracingByteStream::write_all(ByteSpan data) {
  const std::int64_t t0 = spans_.now_ns();
  Status status = inner_->write_all(data);
  spans_.record(write_name_, message_span_id(data), t0, spans_.now_ns(), data.size());
  return status;
}

Status TracingByteStream::write_all_vec(std::initializer_list<ByteSpan> spans) {
  std::uint64_t bytes = 0;
  for (const ByteSpan& span : spans) {
    bytes += span.size();
  }
  const std::uint64_t id = spans.size() > 0 ? message_span_id(*spans.begin()) : 0;
  const std::int64_t t0 = spans_.now_ns();
  Status status = inner_->write_all_vec(spans);
  spans_.record(write_name_, id, t0, spans_.now_ns(), bytes);
  return status;
}

Result<std::size_t> TracingByteStream::read_some(MutableByteSpan out) {
  const std::int64_t t0 = spans_.now_ns();
  auto n = inner_->read_some(out);
  const std::int64_t t1 = spans_.now_ns();
  if (n.ok() && n.value() > 0) {
    spans_.record(read_name_, cursor_.consume(out.data(), n.value()), t0, t1,
                  n.value());
  }
  return n;
}

Result<std::unique_ptr<ByteStream>> TimedListener::accept() {
  const std::int64_t t0 = spans_ != nullptr ? spans_->now_ns() : 0;
  auto stream = inner_.accept();
  if (!stream.ok()) {
    return stream;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    accepted_.push_back(Clock::now());
  }
  if (spans_ == nullptr) {
    return stream;
  }
  spans_->record("accept", 0, t0, spans_->now_ns());
  return std::unique_ptr<ByteStream>(std::make_unique<TracingByteStream>(
      std::move(stream).value(), *spans_, /*data_writes=*/false));
}

std::optional<Clock::time_point> TimedListener::accepted(std::size_t n) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (n == 0 || n > accepted_.size()) {
    return std::nullopt;
  }
  return accepted_[n - 1];
}

std::optional<Chunk> TracingSource::next() {
  const std::int64_t t0 = spans_.now_ns();
  auto chunk = inner_.next();
  if (chunk) {
    spans_.record("source.next", chunk_span_id(chunk->stream_id, chunk->sequence), t0,
                  spans_.now_ns(), chunk->size());
  }
  return chunk;
}

void TracingSink::deliver(Chunk chunk) {
  const std::uint64_t id = chunk_span_id(chunk.stream_id, chunk.sequence);
  const std::uint64_t bytes = chunk.size();
  const std::int64_t t0 = spans_.now_ns();
  inner_.deliver(std::move(chunk));
  spans_.record("sink.deliver", id, t0, spans_.now_ns(), bytes);
}

}  // namespace rtbench
