// Micro-benchmarks (google-benchmark): derived-datatype pack/unpack and
// the exchange's BatchShard frame encode/decode — the per-byte costs
// behind the exchange phase's "buffer management overhead".

#include <benchmark/benchmark.h>

#include "geom/batch_shard.hpp"
#include "mpi/datatype.hpp"
#include "osm/synth.hpp"
#include "util/rng.hpp"

namespace {

using namespace mvio;

void BM_PackContiguous(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> src(n * 4, 1.5);
  const auto rect = mpi::Datatype::contiguous(4, mpi::Datatype::float64());
  std::string out;
  for (auto _ : state) {
    out.clear();
    rect.pack(src.data(), static_cast<int>(n), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n) * 32);
}
BENCHMARK(BM_PackContiguous)->Arg(1000)->Arg(100000);

void BM_PackStrided(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> matrix(n * 8, 2.5);
  // One column out of an 8-wide row-major matrix.
  const auto column = mpi::Datatype::vector(static_cast<int>(n), 1, 8, mpi::Datatype::float64());
  std::string out;
  for (auto _ : state) {
    out.clear();
    column.pack(matrix.data(), 1, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n) * 8);
}
BENCHMARK(BM_PackStrided)->Arg(1000)->Arg(100000);

void BM_UnpackStrided(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto column = mpi::Datatype::vector(static_cast<int>(n), 1, 8, mpi::Datatype::float64());
  std::vector<double> matrix(n * 8, 0.0);
  std::string payload(n * 8, 'x');
  for (auto _ : state) {
    column.unpack(payload.data(), payload.size(), matrix.data(), 1);
    benchmark::DoNotOptimize(matrix.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n) * 8);
}
BENCHMARK(BM_UnpackStrided)->Arg(1000)->Arg(100000);

/// `records` synthetic geometries spread over 8 destinations, grouped by
/// destination as the exchange groups them: the frame writer's input.
struct FrameInput {
  geom::GeometryBatch batch;
  std::vector<std::uint32_t> order;
  std::vector<int> dests;
};

FrameInput frameInput(std::uint64_t records) {
  constexpr int kDests = 8;
  osm::SynthSpec spec;
  spec.maxVertices = 128;
  osm::RecordGenerator gen(spec);
  FrameInput in;
  for (std::uint64_t i = 0; i < records; ++i) {
    in.batch.append(gen.geometry(i), static_cast<int>(i % 32));
  }
  for (int d = 0; d < kDests; ++d) {
    for (std::size_t i = 0; i < in.batch.size(); ++i) {
      if (in.batch.cell(i) % kDests != d) continue;
      in.order.push_back(static_cast<std::uint32_t>(i));
      in.dests.push_back(d);
    }
  }
  return in;
}

void reportFrames(benchmark::State& state, std::size_t bytes, std::size_t records) {
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(records));
}

// Exchange frame encode: one BatchShard per destination, straight from
// the arenas into one buffer.
void BM_FrameEncode(benchmark::State& state) {
  const FrameInput in = frameInput(128);
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    benchmark::DoNotOptimize(geom::encodeShardRuns(in.batch, in.order, in.dests, buf).size());
  }
  reportFrames(state, buf.size(), in.order.size());
}
BENCHMARK(BM_FrameEncode);

// Exchange frame decode: every frame of a several-MB buffer into one
// batch, cleared and reused so its arenas keep their capacity. The codec,
// not allocation, is what the loop times.
void BM_FrameDecode(benchmark::State& state) {
  const FrameInput in = frameInput(20'000);
  std::string buf;
  const auto frames = geom::encodeShardRuns(in.batch, in.order, in.dests, buf);
  geom::GeometryBatch out;
  for (auto _ : state) {
    out.clear();
    for (const geom::ShardRun& f : frames) {
      geom::decodeShard(std::string_view(buf).substr(f.offset, f.counts.encodedBytes()), out);
    }
    benchmark::DoNotOptimize(out.size());
  }
  reportFrames(state, buf.size(), in.order.size());
}
BENCHMARK(BM_FrameDecode);

}  // namespace

BENCHMARK_MAIN();
