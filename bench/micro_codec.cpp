// Micro-benchmarks of the real (non-simulated) codec substrate on the host
// running the build: LZ4 block codec, delta+RLE codec, xxHash, and the frame
// wrapper, on synthetic tomographic data. These numbers are hardware-local;
// the figure benches use the calibrated simulator instead. Each codec rate
// is written to BENCH_micro_codec.json in MB/s (10^6 bytes per second).
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

void BM_FrameEncode(benchmark::State& state) {
  const Codec* codec = codec_by_id(CodecId::kLz4);
  const Bytes input = projection_sample();
  Bytes frame;
  for (auto _ : state) {
    encode_frame_into(*codec, input, frame);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_FrameEncode);

void BM_FrameDecode(benchmark::State& state) {
  const Bytes input = projection_sample();
  const Bytes frame = encode_frame(*codec_by_id(CodecId::kLz4), input);
  for (auto _ : state) {
    auto decoded = decode_frame_content(frame);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_FrameDecode);

// Console output, plus each benchmark's throughput in MB/s for the JSON
// artifact.
class RateRecorder : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      const auto rate = run.counters.find("bytes_per_second");
      if (run.run_type == Run::RT_Iteration && !run.error_occurred &&
          rate != run.counters.end()) {
        mbps[run.benchmark_name()] = rate->second.value / 1e6;
      }
    }
  }

  std::map<std::string, double> mbps;
};

// Benchmark name -> JSON field for the rates the artifact carries.
constexpr std::pair<const char*, const char*> kRateFields[] = {
    {"BM_Lz4CompressTomo", "lz4_compress_mbps"},
    {"BM_Lz4DecompressTomo", "lz4_decompress_mbps"},
    {"BM_Lz4HcCompressTomo", "lz4hc_compress_mbps"},
    {"BM_XxHash32/1048576", "xxh32_mbps"},
    {"BM_XxHash64/1048576", "xxh64_mbps"},
    {"BM_FrameEncode", "frame_encode_mbps"},
    {"BM_FrameDecode", "frame_decode_mbps"},
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
  for (const auto& [benchmark_name, field] : numastream::kRateFields) {
    const auto rate = recorder.mbps.find(benchmark_name);
    if (rate != recorder.mbps.end()) {  // absent when filtered out
      json.field(field, rate->second);
    }
  }
  if (!json.write(numastream::bench::json_artifact_path(
          "BENCH_micro_codec.json"))) {
    std::fprintf(stderr, "failed to write BENCH_micro_codec.json\n");
    return 1;
  }
  return 0;
}
