// Micro-benchmarks of the real (non-simulated) codec substrate on the host
// running the build: LZ4 block codec, delta+RLE codec, xxHash, and the frame
// wrapper, on synthetic tomographic data. These numbers are hardware-local;
// the figure benches use the calibrated simulator instead. Each codec rate
// is written to BENCH_micro_codec.json in MB/s (10^6 bytes per second),
// next to the LZ4 and LZ4-HC compression ratios.
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "codec/codec.h"
#include "codec/frame.h"
#include "codec/lz4.h"
#include "codec/xxhash.h"
#include "common/rng.h"
#include "data/tomo.h"

namespace numastream {
namespace {

// A quarter-size projection keeps iterations snappy while exercising the
// same code paths as the full 11 MB chunk.
Bytes projection_sample() {
  TomoConfig config;
  config.rows = 512;
  config.cols = 1350;
  static const Bytes sample = TomoGenerator(config).projection(1);
  return sample;
}

// Full-size projections as rtbench's ring renders them: entry i under
// `--seed S` uses TomoConfig seed S * 0x9E3779B97F4A7C15 + i
// (Ring::entry_config). These are seed 7's entries 0, 1 and 7, the
// chunks the proj_lz4 workload compresses.
const std::vector<Bytes>& ring_samples() {
  static const std::vector<Bytes> samples = [] {
    std::vector<Bytes> out;
    for (const std::uint64_t index : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7}}) {
      TomoConfig config;
      config.seed = 7 * 0x9E3779B97F4A7C15ULL + index;
      out.push_back(TomoGenerator(config).projection(index));
    }
    return out;
  }();
  return samples;
}

Bytes random_sample(std::size_t size) {
  Bytes data(size);
  Rng rng(99);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  return data;
}

void BM_Lz4CompressTomo(benchmark::State& state) {
  const Bytes input = projection_sample();
  Bytes output(lz4_compress_bound(input.size()));
  for (auto _ : state) {
    auto written = lz4_compress_block(input, output);
    benchmark::DoNotOptimize(written.value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
  const auto written = lz4_compress_block(input, output);
  state.counters["ratio"] =
      static_cast<double>(input.size()) / static_cast<double>(written.value());
}
BENCHMARK(BM_Lz4CompressTomo);

void BM_Lz4DecompressTomo(benchmark::State& state) {
  const Bytes input = projection_sample();
  const Bytes compressed = lz4_compress(input);
  Bytes output(input.size());
  for (auto _ : state) {
    auto produced = lz4_decompress_block(compressed, output);
    benchmark::DoNotOptimize(produced.value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_Lz4DecompressTomo);

void BM_Lz4CompressRing(benchmark::State& state) {
  const std::vector<Bytes>& inputs = ring_samples();
  Bytes output(lz4_compress_bound(inputs.front().size()));
  std::size_t raw = 0;
  std::size_t compressed = 0;
  for (auto _ : state) {
    raw = 0;
    compressed = 0;
    for (const Bytes& input : inputs) {
      auto written = lz4_compress_block(input, output);
      benchmark::DoNotOptimize(written.value());
      raw += input.size();
      compressed += written.value();
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw));
  state.counters["ratio"] = static_cast<double>(raw) / static_cast<double>(compressed);
}
BENCHMARK(BM_Lz4CompressRing)->Unit(benchmark::kMillisecond);

void BM_Lz4DecompressRing(benchmark::State& state) {
  std::vector<Bytes> blocks;
  std::size_t raw = 0;
  for (const Bytes& input : ring_samples()) {
    blocks.push_back(lz4_compress(input));
    raw += input.size();
  }
  Bytes output(ring_samples().front().size());
  for (auto _ : state) {
    for (const Bytes& block : blocks) {
      auto produced = lz4_decompress_block(block, output);
      benchmark::DoNotOptimize(produced.value());
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw));
}
BENCHMARK(BM_Lz4DecompressRing)->Unit(benchmark::kMillisecond);

void BM_Lz4CompressIncompressible(benchmark::State& state) {
  const Bytes input = random_sample(1 << 20);
  Bytes output(lz4_compress_bound(input.size()));
  for (auto _ : state) {
    auto written = lz4_compress_block(input, output);
    benchmark::DoNotOptimize(written.value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_Lz4CompressIncompressible);

void BM_Lz4HcCompressTomo(benchmark::State& state) {
  const Bytes input = projection_sample();
  Bytes output(lz4_compress_bound(input.size()));
  for (auto _ : state) {
    auto written = lz4hc_compress_block(input, output);
    benchmark::DoNotOptimize(written.value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
  const auto written = lz4hc_compress_block(input, output);
  state.counters["ratio"] =
      static_cast<double>(input.size()) / static_cast<double>(written.value());
}
BENCHMARK(BM_Lz4HcCompressTomo);

void BM_DeltaRleCompressTomo(benchmark::State& state) {
  const Codec* codec = codec_by_id(CodecId::kDeltaRle);
  const Bytes input = projection_sample();
  Bytes output(codec->max_compressed_size(input.size()));
  for (auto _ : state) {
    auto written = codec->compress(input, output);
    benchmark::DoNotOptimize(written.value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
  const auto written = codec->compress(input, output);
  state.counters["ratio"] =
      static_cast<double>(input.size()) / static_cast<double>(written.value());
}
BENCHMARK(BM_DeltaRleCompressTomo);

void BM_XxHash32(benchmark::State& state) {
  const Bytes input = random_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(xxhash32(input));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_XxHash32)->Arg(1 << 10)->Arg(1 << 20);

void BM_XxHash64(benchmark::State& state) {
  const Bytes input = random_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(xxhash64(input));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_XxHash64)->Arg(1 << 10)->Arg(1 << 20);

// Frame rows: LZ4 frames and null frames through the joined wrappers
// (encode_frame copies a stored payload in, decode_frame_content copies it
// out), and null frames through the split core the pipeline runs, where the
// stored payload is the chunk's own buffer, sealed in place with one xxh64.
void frame_encode(benchmark::State& state, CodecId id) {
  const Codec* codec = codec_by_id(id);
  const Bytes input = projection_sample();
  for (auto _ : state) {
    Bytes frame = encode_frame(*codec, input);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}

void frame_decode(benchmark::State& state, CodecId id) {
  const Bytes input = projection_sample();
  const Bytes frame = encode_frame(*codec_by_id(id), input);
  for (auto _ : state) {
    auto decoded = decode_frame_content(frame);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}

void BM_FrameEncode(benchmark::State& state) { frame_encode(state, CodecId::kLz4); }
BENCHMARK(BM_FrameEncode);

void BM_FrameDecode(benchmark::State& state) { frame_decode(state, CodecId::kLz4); }
BENCHMARK(BM_FrameDecode);

void BM_FrameEncodeNull(benchmark::State& state) { frame_encode(state, CodecId::kNull); }
BENCHMARK(BM_FrameEncodeNull);

void BM_FrameDecodeNull(benchmark::State& state) { frame_decode(state, CodecId::kNull); }
BENCHMARK(BM_FrameDecodeNull);

void BM_FrameEncodeNullSplit(benchmark::State& state) {
  const Codec& codec = *codec_by_id(CodecId::kNull);
  Bytes chunk = projection_sample();
  const auto bytes = static_cast<std::int64_t>(chunk.size());
  for (auto _ : state) {
    SplitFrame frame = encode_frame_split(codec, std::move(chunk));
    benchmark::DoNotOptimize(frame.header.data());
    chunk = std::move(frame.payload);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_FrameEncodeNullSplit);

void BM_FrameDecodeNullSplit(benchmark::State& state) {
  SplitFrame frame = encode_frame_split(*codec_by_id(CodecId::kNull), projection_sample());
  const auto bytes = static_cast<std::int64_t>(frame.payload.size());
  for (auto _ : state) {
    auto content = decode_frame_split(frame.header, std::move(frame.payload));
    benchmark::DoNotOptimize(content.ok());
    frame.payload = std::move(content).value();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_FrameDecodeNullSplit);

// Console output, plus each benchmark's throughput in MB/s and its
// compression ratio (where it reports one) for the JSON artifact.
class RateRecorder : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) {
        continue;
      }
      const auto rate = run.counters.find("bytes_per_second");
      if (rate != run.counters.end()) {
        mbps[run.benchmark_name()] = rate->second.value / 1e6;
      }
      const auto compression = run.counters.find("ratio");
      if (compression != run.counters.end()) {
        ratio[run.benchmark_name()] = compression->second.value;
      }
    }
  }

  std::map<std::string, double> mbps;
  std::map<std::string, double> ratio;
};

// Benchmark name -> JSON field for the rates the artifact carries.
constexpr std::pair<const char*, const char*> kRateFields[] = {
    {"BM_Lz4CompressTomo", "lz4_compress_mbps"},
    {"BM_Lz4DecompressTomo", "lz4_decompress_mbps"},
    {"BM_Lz4CompressRing", "lz4_compress_ring_mbps"},
    {"BM_Lz4DecompressRing", "lz4_decompress_ring_mbps"},
    {"BM_Lz4HcCompressTomo", "lz4hc_compress_mbps"},
    {"BM_XxHash32/1048576", "xxh32_mbps"},
    {"BM_XxHash64/1048576", "xxh64_mbps"},
    {"BM_FrameEncode", "frame_encode_mbps"},
    {"BM_FrameDecode", "frame_decode_mbps"},
    {"BM_FrameEncodeNull", "frame_null_encode_mbps"},
    {"BM_FrameDecodeNull", "frame_null_decode_mbps"},
    {"BM_FrameEncodeNullSplit", "frame_null_encode_split_mbps"},
    {"BM_FrameDecodeNullSplit", "frame_null_decode_split_mbps"},
};

// Benchmark name -> JSON field for the compression ratios it carries.
constexpr std::pair<const char*, const char*> kRatioFields[] = {
    {"BM_Lz4CompressTomo", "lz4_ratio"},
    {"BM_Lz4HcCompressTomo", "lz4hc_ratio"},
    {"BM_Lz4CompressRing", "lz4_ring_ratio"},
};

}  // namespace
}  // namespace numastream

int main(int argc, char** argv) {
  const numastream::bench::BenchClock bench_clock;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  numastream::RateRecorder recorder;
  const std::size_t benchmarks_run = benchmark::RunSpecifiedBenchmarks(&recorder);
  benchmark::Shutdown();

  numastream::bench::JsonWriter json =
      numastream::bench::bench_json("micro_codec", bench_clock.seconds());
  json.field("benchmarks_run", static_cast<double>(benchmarks_run));
  const auto record = [&json](const auto& fields, const std::map<std::string, double>& values) {
    for (const auto& [benchmark_name, field] : fields) {
      const auto value = values.find(benchmark_name);
      if (value != values.end()) {  // absent when filtered out
        json.field(field, value->second);
      }
    }
  };
  record(numastream::kRateFields, recorder.mbps);
  record(numastream::kRatioFields, recorder.ratio);
  if (!json.write(numastream::bench::json_artifact_path(
          "BENCH_micro_codec.json"))) {
    std::fprintf(stderr, "failed to write BENCH_micro_codec.json\n");
    return 1;
  }
  return 0;
}
