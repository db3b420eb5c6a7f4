// serve_replay and cluster_replicated: one serving::BuildReplayPlan stream
// (office scenario, 64 objects x 20 epochs, measured once in set-up),
// replayed for the run's wall time in whole timestamp-shifted rounds with a
// flush at every epoch boundary.
//
//   serve_replay        NLW wire bytes -> WireDecoder -> 2-worker
//                       StreamingLocalizer.
//   cluster_replicated  the decoded stream -> 2-shard loopback Cluster with
//                       replication and a WAL per shard (written, not fsync'ed).
//
// Every answer has a batch twin: NomLocEngine::LocateBatch over that
// epoch's golden anchors, computed in set-up.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "bench.h"
#include "cluster/cluster.h"
#include "common/metrics.h"
#include "eval/scenario.h"
#include "serving/loadgen.h"
#include "serving/replay.h"
#include "serving/service.h"
#include "serving/session_store.h"
#include "serving/wal.h"
#include "serving/wire.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace serving = nomloc::serving;

constexpr std::size_t kObjects = 64;
constexpr std::size_t kEpochs = 20;
constexpr double kEpochIntervalS = 1.0;
constexpr std::size_t kReplayWorkers = 2;
constexpr std::size_t kClusterShards = 2;  // one worker per shard
constexpr double kRoundShiftS = double(kEpochs) * kEpochIntervalS;

struct Setup {
  explicit Setup(nomloc::eval::Scenario s) : scenario(std::move(s)) {}

  nomloc::eval::Scenario scenario;
  serving::ReplayPlan plan;
  std::optional<nomloc::core::NomLocEngine> engine;
  std::vector<nomloc::core::LocateResponse> golden;
  /// NLW stream of one round; epoch e's frames are bytes
  /// [epoch_byte_end[e-1], epoch_byte_end[e]) (epoch 0 includes the header).
  std::string wire;
  std::vector<std::size_t> epoch_byte_end;
  /// plan.packets index where each epoch ends.
  std::vector<std::size_t> epoch_packet_end;
  /// Golden row (epoch * objects + object) of each query packet, -1 else.
  std::vector<std::int64_t> golden_row;
  std::size_t queries_per_round = 0;
};

Setup BuildSetup(std::uint64_t seed) {
  Setup setup(nomloc::eval::OfficeScenario());
  serving::ReplayConfig replay;
  replay.objects = kObjects;
  replay.epochs = kEpochs;
  replay.epoch_interval_s = kEpochIntervalS;
  replay.run.deployment = nomloc::eval::Deployment::kNomadic;
  replay.run.packets_per_batch = 50;
  replay.run.seed = seed;
  auto plan = serving::BuildReplayPlan(setup.scenario, replay);
  if (!plan.ok()) throw std::runtime_error(plan.status().ToString());
  setup.plan = std::move(*plan);

  nomloc::core::NomLocConfig engine_config = replay.run.engine;
  engine_config.bandwidth_hz = replay.run.channel.bandwidth_hz;
  auto engine = nomloc::core::NomLocEngine::Create(
      setup.scenario.env.Boundary(), engine_config);
  if (!engine.ok()) throw std::runtime_error(engine.status().ToString());
  setup.engine.emplace(std::move(*engine));

  std::vector<nomloc::core::LocateRequest> requests(setup.plan.epochs.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    requests[i].anchors = setup.plan.epochs[i].anchors;
  auto golden = setup.engine->LocateBatch(requests, kReplayWorkers);
  if (!golden.ok()) throw std::runtime_error(golden.status().ToString());
  setup.golden = std::move(*golden);

  setup.wire = serving::WireHeader();
  std::size_t next = 0;
  const auto& packets = setup.plan.packets;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    const double epoch_end_s = double(e + 1) * kEpochIntervalS;
    while (next < packets.size() && packets[next].timestamp_s < epoch_end_s) {
      const serving::IngestPacket& packet = packets[next];
      serving::AppendWireFrame(packet, setup.wire);
      std::int64_t row = -1;
      if (packet.kind == serving::PacketKind::kQuery) {
        row = std::int64_t(e * kObjects + packet.object_id);
        ++setup.queries_per_round;
      }
      setup.golden_row.push_back(row);
      ++next;
    }
    setup.epoch_packet_end.push_back(next);
    setup.epoch_byte_end.push_back(setup.wire.size());
  }
  if (next != packets.size())
    throw std::runtime_error("replay plan outlasts its epochs");
  return setup;
}

std::size_t EpochBegin(const std::vector<std::size_t>& ends, std::size_t e) {
  return e == 0 ? 0 : ends[e - 1];
}

bool SamePacket(const serving::IngestPacket& a, const serving::IngestPacket& b) {
  return a.kind == b.kind && a.object_id == b.object_id &&
         a.ap_id == b.ap_id && a.site_index == b.site_index &&
         a.is_nomadic == b.is_nomadic &&
         SameBits(a.reported_position.x, b.reported_position.x) &&
         SameBits(a.reported_position.y, b.reported_position.y) &&
         SameBits(a.pdp, b.pdp) && SameBits(a.weight, b.weight) &&
         SameBits(a.timestamp_s, b.timestamp_s);
}

bool MatchesGolden(const nomloc::core::LocationEstimate& estimate,
                   std::size_t anchor_count,
                   const nomloc::core::LocateResponse& golden) {
  return SameBits(estimate.position.x, golden.estimate.position.x) &&
         SameBits(estimate.position.y, golden.estimate.position.y) &&
         SameBits(estimate.relaxation_cost, golden.estimate.relaxation_cost) &&
         SameBits(estimate.feasible_area_m2,
                  golden.estimate.feasible_area_m2) &&
         anchor_count == golden.anchor_count;
}

serving::ServingConfig ServingConfigFor(const Setup& setup) {
  serving::ServingConfig config;
  config.queue_capacity = setup.plan.packets.size() + 1;  // no backpressure
  config.store.anchor_ttl_s = setup.plan.suggested_anchor_ttl_s;
  config.store.session_idle_ttl_s = 10.0 * kEpochIntervalS;
  config.expected_anchors = setup.plan.expected_anchors;
  return config;
}

// Accuracy of the plan's answers (every round repeats them bit for bit):
// median error, and SLV over the office test sites.
void SetAccuracy(const Setup& setup, WorkloadResult& result) {
  std::vector<double> errors;
  const std::size_t sites = setup.scenario.test_sites.size();
  std::vector<double> site_sum(sites, 0.0);
  std::vector<std::size_t> site_count(sites, 0);
  for (std::size_t row = 0; row < setup.golden.size(); ++row) {
    const double error =
        nomloc::geometry::Distance(setup.golden[row].estimate.position,
                                   setup.plan.epochs[row].true_position);
    errors.push_back(error);
    const std::size_t site = setup.plan.epochs[row].object_id % sites;
    site_sum[site] += error;
    ++site_count[site];
  }
  std::vector<double> site_means;
  for (std::size_t s = 0; s < sites; ++s)
    if (site_count[s] > 0) site_means.push_back(site_sum[s] / site_count[s]);
  result.Set("median_error_m", Median(errors), "m");
  result.Set("slv_m2", PopulationVariance(site_means), "m2");
}

// Serial Locate over every golden request, for the core / localization /
// lp layer numbers; must reproduce the batch golden bit for bit.
void TraceLocate(const Setup& setup, Tracer& tracer, WorkloadResult& result) {
  std::vector<double> judge_s, solve_s;
  std::uint64_t lp_iterations = 0;
  for (std::size_t row = 0; row < setup.plan.epochs.size(); ++row) {
    nomloc::core::LocateRequest request;
    request.anchors = setup.plan.epochs[row].anchors;
    nomloc::common::Result<nomloc::core::LocateResponse> located =
        nomloc::common::Internal("unset");
    {
      ScopedSpan span(&tracer, "core.locate", Tracer::kNoSpan, row);
      located = setup.engine->Locate(request);
    }
    if (!located.ok() ||
        !MatchesGolden(located->estimate, located->anchor_count,
                       setup.golden[row])) {
      result.Fail("serial Locate differs from LocateBatch");
      continue;
    }
    judge_s.push_back(located->timings.judge_s);
    solve_s.push_back(located->timings.solve_s);
    lp_iterations += located->lp_iterations;
  }
  result.Set("core.locate_us", 1e6 * Median(tracer.DurationsSeconds("core.locate")),
             "us");
  result.Set("localization.judge_us", 1e6 * Median(judge_s), "us");
  result.Set("localization.solve_us", 1e6 * Median(solve_s), "us");
  result.Set("lp.iterations", double(lp_iterations), "count");
}

// One round of the wire stream through a fresh decoder, one span per epoch
// chunk (the cluster path hands the router decoded packets, so its decode
// cost is timed on its own).
void TraceDecode(const Setup& setup, Tracer& tracer, WorkloadResult& result) {
  serving::WireDecoder decoder;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    const std::size_t begin = EpochBegin(setup.epoch_byte_end, e);
    const std::string_view chunk(setup.wire.data() + begin,
                                 setup.epoch_byte_end[e] - begin);
    const std::size_t expected = setup.epoch_packet_end[e] -
                                 EpochBegin(setup.epoch_packet_end, e);
    ScopedSpan span(&tracer, "serving.wire.decode", Tracer::kNoSpan, e,
                    expected);
    if (!decoder.Feed(chunk).ok() || decoder.TakePackets().size() != expected)
      result.Fail("wire decode failed");
  }
  if (!decoder.Finish().ok()) result.Fail("wire stream did not end cleanly");
  result.Set("serving.wire.decode_ns_per_packet",
             1e9 * Median(tracer.PerItemSeconds("serving.wire.decode")), "ns");
}

void TraceStore(const Setup& setup, const serving::ServingConfig& config,
                Tracer& tracer, WorkloadResult& result) {
  serving::SessionStore store(config.store);
  const auto& packets = setup.plan.packets;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    const std::size_t begin = EpochBegin(setup.epoch_packet_end, e);
    const std::size_t end = setup.epoch_packet_end[e];
    std::size_t observations = 0;
    for (std::size_t i = begin; i < end; ++i)
      observations += packets[i].kind == serving::PacketKind::kObservation;
    {
      ScopedSpan span(&tracer, "serving.store.upsert", Tracer::kNoSpan, e,
                      observations);
      for (std::size_t i = begin; i < end; ++i) {
        const serving::IngestPacket& p = packets[i];
        if (p.kind != serving::PacketKind::kObservation) continue;
        store.Upsert(p.object_id, serving::AnchorKey{p.ap_id, p.site_index},
                     p.reported_position, p.is_nomadic,
                     serving::PdpObservation{p.pdp, p.weight, p.timestamp_s},
                     p.timestamp_s);
      }
    }
    ScopedSpan span(&tracer, "serving.store.snapshot", Tracer::kNoSpan, e,
                    end - begin - observations);
    for (std::size_t i = begin; i < end; ++i) {
      const serving::IngestPacket& p = packets[i];
      if (p.kind != serving::PacketKind::kQuery) continue;
      if (!store.Snapshot(p.object_id, p.timestamp_s).ok())
        result.Fail("standalone store lost a session");
    }
  }
  result.Set("serving.store.upsert_us",
             1e6 * Median(tracer.PerItemSeconds("serving.store.upsert")), "us");
  result.Set("serving.store.snapshot_us",
             1e6 * Median(tracer.PerItemSeconds("serving.store.snapshot")),
             "us");
}

// The load generator: a BuildLoadSchedule stream over the replay's objects
// (3 anchors each inside the office floor, Zipf 0.99, 5% queries), sent on
// its Poisson schedule at a fixed 20 000 packets/s for one second into a
// fresh 2-worker localizer.  Reports how late the sends ran against their
// schedule: an open-loop latency means nothing unless that stays small.
void TraceLoadgen(const Setup& setup, serving::ServingConfig config,
                  std::uint64_t seed, Tracer& tracer, WorkloadResult& result) {
  serving::LoadGenConfig load;
  load.objects = kObjects;
  load.anchors_per_object = 3;
  load.packets = 20'000;
  load.rate_per_s = 20'000.0;
  load.query_fraction = 0.05;
  load.area_m = 10.0;  // the office floor is 18 x 10 m
  load.seed = seed;
  if (auto valid = load.Validate(); !valid.ok())
    throw std::runtime_error(valid.status().ToString());
  const serving::LoadSchedule schedule = serving::BuildLoadSchedule(load);

  config.workers = kReplayWorkers;
  config.queue_capacity = schedule.populate.size() + schedule.steady.size();
  serving::ManualClock clock;
  auto service =
      serving::StreamingLocalizer::Create(*setup.engine, config, &clock);
  if (!service.ok()) throw std::runtime_error(service.status().ToString());
  serving::StreamingLocalizer& localizer = **service;
  for (const serving::IngestPacket& packet : schedule.populate)
    if (localizer.Ingest(packet) != serving::AdmitStatus::kAccepted)
      result.Fail("load generator populate packet rejected");
  localizer.Flush();

  std::vector<double> late_s;
  late_s.reserve(schedule.steady.size());
  {
    ScopedSpan span(&tracer, "serving.loadgen.paced", Tracer::kNoSpan, 0,
                    schedule.steady.size());
    const auto t0 = WallClock::now();
    for (const serving::ScheduledPacket& scheduled : schedule.steady) {
      const auto due = t0 + std::chrono::duration_cast<WallClock::duration>(
                                std::chrono::duration<double>(
                                    scheduled.send_offset_s));
      auto now = WallClock::now();
      while (now < due) now = WallClock::now();
      late_s.push_back(SecondsBetween(due, now));
      serving::IngestPacket packet = scheduled.packet;
      packet.scheduled_wall = due;
      clock.Set(packet.timestamp_s);
      if (localizer.Ingest(packet) != serving::AdmitStatus::kAccepted)
        result.Fail("load generator packet rejected");
    }
    localizer.Flush();
  }
  localizer.TakeResponses();
  SettleWorkers();
  localizer.Shutdown();
  result.Set("serving.loadgen.late_p99_us", 1e6 * Quantile(late_s, 0.99),
             "us");
}

void SetStoreBytes(const std::vector<serving::MemoryStats>& stores,
                   WorkloadResult& result) {
  double live = 0.0, resident = 0.0, sessions = 0.0;
  for (const serving::MemoryStats& m : stores) {
    live += double(m.live_bytes);
    resident += double(m.resident_bytes);
    sessions += double(m.sessions);
  }
  result.Set("serving.store.live_bytes", live, "B");
  result.Set("serving.store.resident_bytes", resident, "B");
  if (sessions > 0.0)
    result.Set("serving.store.bytes_per_session", live / sessions, "B");
}

// Rates from the median round, so a stall in a few rounds does not move
// them.
void SetRates(double packets_per_round, double queries_per_round,
              const std::vector<double>& round_s, WorkloadResult& result) {
  const double median_round_s = Median(round_s);
  result.Set("packets_per_s", packets_per_round / median_round_s, "packet/s");
  result.Set("epochs_per_s", queries_per_round / median_round_s, "epoch/s");
}

WorkloadResult RunServeReplay(const Options& options) {
  WorkloadResult result;
  Tracer tracer(options.trace);
  if (options.trace) SetDefaultLayerMetrics(result);
  const Setup setup = BuildSetup(options.seed);
  serving::ServingConfig config = ServingConfigFor(setup);
  config.workers = kReplayWorkers;
  serving::ManualClock clock;
  auto service =
      serving::StreamingLocalizer::Create(*setup.engine, config, &clock);
  if (!service.ok()) throw std::runtime_error(service.status().ToString());
  serving::StreamingLocalizer& localizer = **service;

  const std::size_t packets_per_round = setup.plan.packets.size();
  WindowedLatency latency;
  std::vector<double> queue_wait_s, service_s;
  std::vector<double> traced_round_s, untraced_round_s;
  double traced_wall_s = 0.0;
  std::uint64_t rounds = 0;
  bool perturbed = false;
  const double setup_s = SecondsSinceStart();
  const auto start = WallClock::now();
  while (SecondsBetween(start, WallClock::now()) < options.seconds) {
    const bool traced = options.trace && rounds % 2 == 1;
    Tracer* round_tracer = traced ? &tracer : nullptr;
    const auto round_start = WallClock::now();
    const double shift_s = double(rounds) * kRoundShiftS;
    serving::WireDecoder decoder;
    for (std::size_t e = 0; e < kEpochs; ++e) {
      const std::size_t begin = EpochBegin(setup.epoch_byte_end, e);
      const std::string_view chunk(setup.wire.data() + begin,
                                   setup.epoch_byte_end[e] - begin);
      const std::size_t count = setup.epoch_packet_end[e] -
                                EpochBegin(setup.epoch_packet_end, e);
      const std::uint64_t request = rounds * kEpochs + e;
      std::vector<serving::IngestPacket> packets;
      {
        ScopedSpan span(round_tracer, "serving.wire.decode",
                        Tracer::kNoSpan, request, count);
        if (!decoder.Feed(chunk).ok())
          throw std::runtime_error("wire decode failed");
        packets = decoder.TakePackets();
      }
      if (packets.size() != count) result.Fail("decoder lost packets");
      {
        ScopedSpan span(round_tracer, "serving.service.ingest",
                        Tracer::kNoSpan, request, count);
        for (serving::IngestPacket& packet : packets) {
          packet.timestamp_s += shift_s;
          clock.Set(packet.timestamp_s);
          if (localizer.Ingest(packet) != serving::AdmitStatus::kAccepted)
            ++result.failed;
        }
      }
      ScopedSpan span(round_tracer, "serving.service.flush",
                      Tracer::kNoSpan, request);
      localizer.Flush();
    }
    std::vector<serving::ServeResponse> responses = localizer.TakeResponses();
    const auto round_end = WallClock::now();
    (traced ? traced_round_s : untraced_round_s)
        .push_back(SecondsBetween(round_start, round_end));
    if (traced) traced_wall_s += traced_round_s.back();

    if (options.perturb && !perturbed && !responses.empty()) {
      responses[0].estimate.position.x =
          std::nextafter(responses[0].estimate.position.x, 1e9);
      perturbed = true;
    }
    if (responses.size() != setup.queries_per_round)
      result.Fail("expected one response per query");
    const std::uint64_t base_seq = rounds * packets_per_round;
    for (const serving::ServeResponse& response : responses) {
      const std::uint64_t index = response.seq - base_seq;
      if (response.seq < base_seq || index >= packets_per_round ||
          setup.golden_row[index] < 0) {
        result.Fail("response does not belong to a query of this round");
        continue;
      }
      if (response.status != serving::ServeStatus::kOk ||
          !MatchesGolden(response.estimate, response.anchor_count,
                         setup.golden[std::size_t(setup.golden_row[index])]))
        result.Fail("streamed answer differs from its LocateBatch twin");
      latency.Add(1e3 * response.latency_s);
      if (!options.trace) continue;  // keeps peak RSS free of bookkeeping
      queue_wait_s.push_back(response.queue_wait_s);
      service_s.push_back(response.latency_s - response.queue_wait_s);
    }
    latency.CloseWindow();
    ++rounds;
  }
  result.attempted = rounds * packets_per_round;
  const serving::MemoryStats memory = localizer.Store().Memory();
  SettleWorkers();
  localizer.Shutdown();

  if (!options.trace) {
    result.Set("setup_s", setup_s, "s");
    SetRates(double(packets_per_round), double(setup.queries_per_round),
             untraced_round_s, result);
    latency.Report(result);
    SetAccuracy(setup, result);
    return result;
  }
  const auto extra_start = WallClock::now();
  result.Set("serving.wire.decode_ns_per_packet",
             1e9 * Median(tracer.PerItemSeconds("serving.wire.decode")), "ns");
  result.Set("serving.service.ingest_us",
             1e6 * Median(tracer.PerItemSeconds("serving.service.ingest")),
             "us");
  result.Set("serving.service.flush_wait_ms",
             1e3 * Median(tracer.DurationsSeconds("serving.service.flush")),
             "ms");
  result.Set("serving.service.queue_wait_p50_us",
             1e6 * Quantile(queue_wait_s, 0.5), "us");
  result.Set("serving.service.queue_wait_p99_us",
             1e6 * Quantile(queue_wait_s, 0.99), "us");
  result.Set("serving.service.service_us", 1e6 * Median(service_s), "us");
  SetStoreBytes({memory}, result);
  TraceLocate(setup, tracer, result);
  TraceStore(setup, config, tracer, result);
  TraceLoadgen(setup, config, options.seed, tracer, result);
  FinishTrace(options, tracer, traced_round_s, untraced_round_s,
              traced_wall_s + SecondsBetween(extra_start, WallClock::now()),
              result);
  return result;
}

// Observation indices of one round, split by the shard that takes the
// primary write and, with replication, the one holding the standby copy
// (with two shards: the other one).
struct ShardExpectation {
  std::vector<std::size_t> primary;
  std::vector<std::size_t> replica;
};

// Replays each shard's WAL one segment at a time (every segment starts
// with the stream header, so it opens on its own; the whole log at once
// would not fit in a small memory budget) and compares the observation and
// replicate frames with what the benchmark routed there.
void CheckWal(const Setup& setup, const std::string& durable_dir,
              const std::vector<ShardExpectation>& expected,
              std::uint64_t rounds, bool replicate, bool perturb,
              WorkloadResult& result) {
  const auto& packets = setup.plan.packets;
  for (std::size_t shard = 0; shard < expected.size(); ++shard) {
    const std::string dir = durable_dir + "/shard-" + std::to_string(shard);
    std::vector<std::string> segments;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("wal-", 0) == 0 && entry.path().extension() == ".log")
        segments.push_back(entry.path().string());
    }
    std::sort(segments.begin(), segments.end());
    if (ec || segments.empty()) {
      result.Fail("no WAL segments in " + dir);
      continue;
    }
    if (perturb && shard == 0) {  // one byte inside the first frame
      std::fstream file(segments[0], std::ios::in | std::ios::out |
                                         std::ios::binary);
      file.seekg(std::streamoff(serving::kWireHeaderBytes + 10));
      char byte = 0;
      file.read(&byte, 1);
      byte = char(byte ^ 0x01);
      file.seekp(std::streamoff(serving::kWireHeaderBytes + 10));
      file.write(&byte, 1);
    }
    const ShardExpectation& want = expected[shard];
    std::uint64_t primary_seen = 0, replica_seen = 0;
    bool mismatch = false;
    const std::string staging = durable_dir + "/check";
    for (const std::string& segment : segments) {
      fs::remove_all(staging, ec);
      fs::create_directories(staging, ec);
      fs::copy_file(segment, staging + "/wal-000001.log", ec);
      if (ec) {
        result.Fail("cannot stage WAL segment " + segment);
        break;
      }
      serving::WalConfig wal_config;
      wal_config.directory = staging;
      wal_config.fsync = false;
      serving::WireDecoderAccept accept;
      accept.controls = true;
      accept.replicates = true;
      accept.ordered = true;
      auto opened = serving::WriteAheadLog::Open(wal_config, accept);
      if (!opened.ok()) {
        result.Fail("WAL replay of " + segment + ": " +
                    opened.status().ToString());
        mismatch = true;
        break;
      }
      for (const serving::WireEvent& event : opened->events) {
        const bool is_replica = event.kind == serving::kWireReplicateFrame;
        if (event.kind != serving::kWireObservationFrame && !is_replica)
          continue;
        const std::vector<std::size_t>& list =
            is_replica ? want.replica : want.primary;
        std::uint64_t& seen = is_replica ? replica_seen : primary_seen;
        if (list.empty() || seen >= rounds * list.size()) {
          mismatch = true;
          break;
        }
        serving::IngestPacket sent = packets[list[seen % list.size()]];
        sent.timestamp_s += double(seen / list.size()) * kRoundShiftS;
        const serving::IngestPacket& logged =
            is_replica ? event.replicate.packet : event.packet;
        if (!SamePacket(sent, logged)) mismatch = true;
        ++seen;
      }
      if (mismatch) break;
    }
    fs::remove_all(staging, ec);
    const std::uint64_t replicas_due =
        replicate ? rounds * want.replica.size() : 0;
    if (mismatch || primary_seen != rounds * want.primary.size() ||
        replica_seen != replicas_due)
      result.Fail("WAL of shard " + std::to_string(shard) +
                  " does not replay the observations routed to it");
  }
}

void TraceWal(const Setup& setup, const std::string& dir, Tracer& tracer,
              WorkloadResult& result) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  serving::WalConfig wal_config;
  wal_config.directory = dir;
  wal_config.fsync = false;  // Sync() is timed on its own below
  auto opened = serving::WriteAheadLog::Open(wal_config, {});
  if (!opened.ok()) {
    result.Fail("standalone WAL: " + opened.status().ToString());
    return;
  }
  serving::WriteAheadLog& wal = *opened->wal;
  std::string frames;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    frames.clear();
    for (std::size_t i = EpochBegin(setup.epoch_packet_end, e);
         i < setup.epoch_packet_end[e]; ++i)
      serving::AppendWireFrame(setup.plan.packets[i], frames);
    {
      ScopedSpan span(&tracer, "serving.wal.append", Tracer::kNoSpan, e);
      if (!wal.Append(frames).ok()) result.Fail("standalone WAL append");
    }
    ScopedSpan span(&tracer, "serving.wal.sync", Tracer::kNoSpan, e);
    if (!wal.Sync().ok()) result.Fail("standalone WAL sync");
  }
  opened->wal.reset();
  fs::remove_all(dir, ec);
  result.Set("serving.wal.append_us",
             1e6 * Median(tracer.DurationsSeconds("serving.wal.append")), "us");
  result.Set("serving.wal.sync_ms",
             1e3 * Median(tracer.DurationsSeconds("serving.wal.sync")), "ms");
}

WorkloadResult RunCluster(const Options& options) {
  WorkloadResult result;
  Tracer tracer(options.trace);
  if (options.trace) SetDefaultLayerMetrics(result);
  const Setup setup = BuildSetup(options.seed);
  auto decoded = serving::DecodeWireBinary(setup.wire);
  if (!decoded.ok()) throw std::runtime_error(decoded.status().ToString());
  const std::vector<serving::IngestPacket>& stream = *decoded;

  const std::string durable_dir =
      options.out_dir + "/wal-" + std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(durable_dir, ec);
  nomloc::cluster::ClusterConfig config;
  config.shards = kClusterShards;
  config.serving = ServingConfigFor(setup);
  config.serving.workers = 1;
  config.replicate = options.replicate;
  config.durable_dir = durable_dir;
  // Every WAL append is written, but not fsync'ed, on the timed path: the
  // fsync latency of a shared virtual disk drifts from run to run and set
  // the query tail (p99 spread 0.35 over five seeds with fsync, 0.08
  // without).  Sync cost is timed per layer (serving.wal.sync_ms), and the
  // appends per epoch, each of which would be an fsync, are counted.
  config.wal_fsync = false;
  serving::ManualClock clock;
  auto created = nomloc::cluster::Cluster::Create(*setup.engine, config, &clock);
  if (!created.ok()) throw std::runtime_error(created.status().ToString());
  nomloc::cluster::Cluster& cluster = **created;

  std::vector<ShardExpectation> expected(kClusterShards);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (stream[i].kind != serving::PacketKind::kObservation) continue;
    const std::size_t owner = cluster.ShardOf(stream[i].object_id);
    expected[owner].primary.push_back(i);
    expected[(owner + 1) % kClusterShards].replica.push_back(i);
  }

  std::vector<WallClock::time_point> sent(setup.golden.size());
  WindowedLatency latency;
  std::vector<double> traced_round_s, untraced_round_s;
  double traced_wall_s = 0.0;
  std::uint64_t rounds = 0;
  nomloc::common::MetricCounter& wal_appends =
      nomloc::common::MetricRegistry::Global().Counter("serving.wal.appends");
  const std::uint64_t wal_appends_before = wal_appends.Value();
  const double setup_s = SecondsSinceStart();
  const auto start = WallClock::now();
  while (SecondsBetween(start, WallClock::now()) < options.seconds) {
    const bool traced = options.trace && rounds % 2 == 1;
    Tracer* round_tracer = traced ? &tracer : nullptr;
    const auto round_start = WallClock::now();
    const double shift_s = double(rounds) * kRoundShiftS;
    for (std::size_t e = 0; e < kEpochs; ++e) {
      const std::size_t begin = EpochBegin(setup.epoch_packet_end, e);
      const std::size_t end = setup.epoch_packet_end[e];
      const std::uint64_t request = rounds * kEpochs + e;
      {
        ScopedSpan span(round_tracer, "cluster.ingest",
                        Tracer::kNoSpan, request, end - begin);
        for (std::size_t i = begin; i < end; ++i) {
          serving::IngestPacket packet = stream[i];
          packet.timestamp_s += shift_s;
          clock.Set(packet.timestamp_s);
          if (setup.golden_row[i] >= 0)
            sent[std::size_t(setup.golden_row[i])] = WallClock::now();
          serving::AdmitStatus status = cluster.Ingest(packet);
          // Transport backpressure is a retryable verdict: the load thread
          // waits for the shard to drain, as a real client would.
          while (status == serving::AdmitStatus::kRejectedQueueFull) {
            std::this_thread::yield();
            status = cluster.Ingest(packet);
          }
          if (status != serving::AdmitStatus::kAccepted) ++result.failed;
        }
      }
      ScopedSpan span(round_tracer, "cluster.flush", Tracer::kNoSpan,
                      request);
      cluster.Flush();
    }
    std::vector<nomloc::cluster::ClusterResponse> responses =
        cluster.TakeResponses();
    (traced ? traced_round_s : untraced_round_s)
        .push_back(SecondsBetween(round_start, WallClock::now()));
    if (traced) traced_wall_s += traced_round_s.back();

    if (responses.size() != setup.queries_per_round)
      result.Fail("expected one response per query");
    std::vector<char> seen(setup.golden.size(), 0);
    for (const nomloc::cluster::ClusterResponse& cr : responses) {
      const serving::WireResponse& r = cr.response;
      const double local_s = r.timestamp_s - shift_s;
      const auto epoch = std::size_t(std::floor(local_s / kEpochIntervalS));
      const std::size_t row = epoch * kObjects + r.object_id;
      if (!(local_s >= 0.0) || epoch >= kEpochs || r.object_id >= kObjects ||
          seen[row]) {
        result.Fail("response does not belong to a query of this round");
        continue;
      }
      seen[row] = 1;
      const nomloc::core::LocateResponse& golden = setup.golden[row];
      if (r.status != std::uint8_t(serving::ServeStatus::kOk) ||
          !SameBits(r.position.x, golden.estimate.position.x) ||
          !SameBits(r.position.y, golden.estimate.position.y) ||
          !SameBits(r.relaxation_cost, golden.estimate.relaxation_cost) ||
          !SameBits(r.feasible_area_m2, golden.estimate.feasible_area_m2) ||
          r.anchor_count != golden.anchor_count)
        result.Fail("sharded answer differs from the unsharded golden");
      latency.Add(1e3 * SecondsBetween(sent[row], cr.received_wall));
    }
    latency.CloseWindow();
    ++rounds;
  }
  result.attempted = rounds * stream.size();
  const double wal_appends_per_epoch =
      double(wal_appends.Value() - wal_appends_before) /
      double(rounds * kEpochs * kClusterShards);
  std::vector<serving::MemoryStats> stores;
  for (std::size_t s = 0; s < kClusterShards; ++s)
    if (serving::SessionStore* store = cluster.StoreOf(s))
      stores.push_back(store->Memory());
  SettleWorkers();
  cluster.Shutdown();
  CheckWal(setup, durable_dir, expected, rounds, options.replicate,
           options.perturb, result);
  fs::remove_all(durable_dir, ec);

  if (!options.trace) {
    result.Set("setup_s", setup_s, "s");
    SetRates(double(stream.size()), double(setup.queries_per_round),
             untraced_round_s, result);
    latency.Report(result);
    SetAccuracy(setup, result);
    return result;
  }
  const auto extra_start = WallClock::now();
  result.Set("cluster.ingest_us",
             1e6 * Median(tracer.PerItemSeconds("cluster.ingest")), "us");
  result.Set("cluster.flush_ms",
             1e3 * Median(tracer.DurationsSeconds("cluster.flush")), "ms");
  result.Set("serving.wal.appends_per_epoch", wal_appends_per_epoch, "count");
  SetStoreBytes(stores, result);
  TraceDecode(setup, tracer, result);
  TraceLocate(setup, tracer, result);
  TraceWal(setup,
           options.out_dir + "/wal-standalone-" + std::to_string(::getpid()),
           tracer, result);
  FinishTrace(options, tracer, traced_round_s, untraced_round_s,
              traced_wall_s + SecondsBetween(extra_start, WallClock::now()),
              result);
  return result;
}

}  // namespace

WorkloadResult RunReplay(const Options& options, bool cluster) {
  return cluster ? RunCluster(options) : RunServeReplay(options);
}

}  // namespace perfbench
