// Unit tests for the replay container (replay::Recording), the live
// service recorder (replay::Recorder over core::SessionService hooks),
// and InputScript's timestamp-ordering contract.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/sessionservice.h"
#include "replay/recording.h"
#include "replay/runner.h"
#include "traj/synth.h"
#include "ui/script.h"
#include "util/clock.h"

namespace svq::replay {
namespace {

traj::TrajectoryDataset makeDataset(const WorldSpec& spec) {
  traj::AntSimulator sim({}, spec.datasetSeed);
  traj::DatasetSpec ds;
  ds.count = spec.trajectoryCount;
  return sim.generate(ds);
}

Recording sampleRecording() {
  Recording rec;
  rec.world.datasetSeed = 4242;
  rec.world.trajectoryCount = 17;
  rec.world.wireDropProbability = 0.25;
  rec.world.wireFaultSeed = 99;
  rec.admit(0, 0.0);
  rec.admit(1, 0.5);
  rec.event(0, 1.0, ui::BrushStrokeEvent{1, {3.0f, -4.0f}, 7.5f}, "west");
  rec.event(1, 1.5, ui::TimeWindowEvent{2.0f, 60.0f});
  rec.event(0, 2.0, ui::LayoutSwitchEvent{2});
  ui::GroupDefineEvent g;
  g.groupId = 3;
  g.cellRect = {1, 2, 4, 3};
  g.colorIndex = 2;
  g.name = "returners";
  rec.event(1, 2.5, g);
  rec.event(0, 3.0, ui::DepthOffsetEvent{-5.0f});
  rec.event(1, 3.5, ui::TimeScaleEvent{0.5f});
  rec.event(0, 4.0, ui::GroupClearEvent{3});
  rec.event(1, 4.5, ui::PageEvent{-1});
  rec.event(0, 5.0, ui::BrushClearEvent{255});
  rec.close(1, 6.0);
  return rec;
}

TEST(RecordingTest, RoundTripsAllStepKindsAndEventTypes) {
  const Recording rec = sampleRecording();
  const auto restored = Recording::deserialize(rec.serialize());
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), rec.size());
  EXPECT_EQ(restored->world.datasetSeed, rec.world.datasetSeed);
  EXPECT_EQ(restored->world.trajectoryCount, rec.world.trajectoryCount);
  EXPECT_EQ(restored->world.wireDropProbability,
            rec.world.wireDropProbability);
  EXPECT_EQ(restored->world.wireFaultSeed, rec.world.wireFaultSeed);
  for (std::size_t i = 0; i < rec.size(); ++i) {
    const RecordedStep& a = rec.steps()[i];
    const RecordedStep& b = restored->steps()[i];
    EXPECT_EQ(a.kind, b.kind) << "step " << i;
    EXPECT_EQ(a.tenant, b.tenant) << "step " << i;
    EXPECT_EQ(a.timeS, b.timeS) << "step " << i;
    EXPECT_EQ(a.note, b.note) << "step " << i;
    if (a.kind == StepKind::kEvent) {
      EXPECT_EQ(a.event, b.event) << "step " << i;
    }
  }
  EXPECT_EQ(restored->eventCount(), rec.eventCount());
  EXPECT_EQ(restored->tenantCount(), 2u);
}

TEST(RecordingTest, RejectsBadMagicVersionTruncationAndTrailingGarbage) {
  const util::MessageBuffer buf = sampleRecording().serialize();
  const auto& bytes = buf.bytes();

  {  // bad magic
    std::vector<std::uint8_t> corrupt(bytes);
    corrupt[0] ^= 0xFF;
    EXPECT_FALSE(
        Recording::deserialize(util::MessageBuffer(std::move(corrupt))));
  }
  {  // unknown version
    std::vector<std::uint8_t> corrupt(bytes);
    corrupt[4] = 0x7F;
    EXPECT_FALSE(
        Recording::deserialize(util::MessageBuffer(std::move(corrupt))));
  }
  {  // every strict prefix is rejected, never a crash
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<std::uint8_t> prefix(bytes.begin(),
                                       bytes.begin() + static_cast<long>(cut));
      EXPECT_FALSE(
          Recording::deserialize(util::MessageBuffer(std::move(prefix))))
          << "cut " << cut;
    }
  }
  {  // trailing garbage
    std::vector<std::uint8_t> padded(bytes);
    padded.push_back(0xAB);
    EXPECT_FALSE(Recording::deserialize(util::MessageBuffer(std::move(padded))));
  }
  EXPECT_TRUE(Recording::deserialize(util::MessageBuffer(bytes)).has_value());
}

TEST(RecordingTest, RejectsHostileCountsBadKindsAndNonFiniteTimestamps) {
  // The step count sits right after magic+version+world (8 + 104 bytes:
  // v2 appended the five u32 overload-plan fields to the world block,
  // v3 the three u32 progressive-plan fields).
  const std::size_t countOffset = 8 + 104;
  const util::MessageBuffer buf = sampleRecording().serialize();

  {  // hostile step count: bounded by payload, rejected before reserve
    std::vector<std::uint8_t> corrupt(buf.bytes());
    const std::uint32_t huge = 0x7FFFFFFFu;
    std::memcpy(corrupt.data() + countOffset, &huge, sizeof huge);
    EXPECT_FALSE(
        Recording::deserialize(util::MessageBuffer(std::move(corrupt))));
  }
  {  // invalid step kind
    std::vector<std::uint8_t> corrupt(buf.bytes());
    corrupt[countOffset + 4] = 9;  // first step's kind byte
    EXPECT_FALSE(
        Recording::deserialize(util::MessageBuffer(std::move(corrupt))));
  }
  {  // NaN timestamp
    Recording rec;
    rec.admit(0, 0.0);
    rec.event(0, std::numeric_limits<double>::quiet_NaN(), ui::PageEvent{1});
    EXPECT_FALSE(Recording::deserialize(rec.serialize()));
  }
  {  // absurd tenant index (bit-flipped track field)
    Recording rec;
    rec.admit(0x7FFFFFFFu, 0.0);
    EXPECT_FALSE(Recording::deserialize(rec.serialize()));
  }
}

TEST(RecordingTest, TenantSliceKeepsOrderAndRemapsToTrackZero) {
  const Recording rec = sampleRecording();
  const Recording slice = rec.tenantSlice(1);
  ASSERT_EQ(slice.size(), 6u);  // admit + 4 events + close
  EXPECT_EQ(slice.steps().front().kind, StepKind::kAdmit);
  EXPECT_EQ(slice.steps().back().kind, StepKind::kClose);
  double lastTime = -1.0;
  for (const RecordedStep& s : slice.steps()) {
    EXPECT_EQ(s.tenant, 0u);
    EXPECT_GT(s.timeS, lastTime);  // original relative order preserved
    lastTime = s.timeS;
  }
  EXPECT_EQ(slice.world.datasetSeed, rec.world.datasetSeed);
}

// --- format v2/v3: refusals, kSubmit/kRefine steps, back-compat --------------

/// Writes the WorldSpec block by hand — v1 (72 bytes), v2 (92 bytes, with
/// the overload plan) or v3 (104 bytes, with the progressive plan) — so
/// tests can author payloads of any version without going through
/// serialize().
void putWorldBytes(util::MessageBuffer& buf, const WorldSpec& w, int version) {
  buf.putU64(w.datasetSeed);
  buf.putU32(w.trajectoryCount);
  buf.putI32(w.tile.pxW);
  buf.putI32(w.tile.pxH);
  buf.putF32(w.tile.activeWmm);
  buf.putF32(w.tile.activeHmm);
  buf.putF32(w.tile.bezelMm);
  buf.putI32(w.tileCols);
  buf.putI32(w.tileRows);
  buf.putU64(std::bit_cast<std::uint64_t>(w.wireDropProbability));
  buf.putU64(w.wireFaultSeed);
  buf.putU64(std::bit_cast<std::uint64_t>(w.ioFaultPct));
  buf.putU64(w.ioFaultSeed);
  if (version >= 2) {
    buf.putU32(w.overload.applyDeadlineUs);
    buf.putU32(w.overload.shedP99Us);
    buf.putU32(w.overload.shedQueueDepth);
    buf.putU32(w.overload.healthWindow);
    buf.putU32(w.overload.clockAdvanceUsPerStep);
  }
  if (version >= 3) {
    buf.putU32(w.progressive.shardCapacity);
    buf.putU32(w.progressive.somRows);
    buf.putU32(w.progressive.somCols);
  }
}

TEST(RecordingTest, RoundTripsOverloadPlanRefusalsAndSubmits) {
  Recording rec;
  rec.world.datasetSeed = 77;
  rec.world.overload.applyDeadlineUs = 50000;
  rec.world.overload.shedP99Us = 2000;
  rec.world.overload.shedQueueDepth = 60;
  rec.world.overload.healthWindow = 8;
  rec.world.overload.clockAdvanceUsPerStep = 500;
  rec.admit(0, 0.0);
  rec.event(0, 1.0, ui::PageEvent{1});
  rec.submit(0, 2.0, ui::TimeWindowEvent{0.0f, 30.0f}, "queued");
  rec.refused(0, 3.0, ui::BrushStrokeEvent{0, {1.0f, 2.0f}, 5.0f},
              static_cast<std::uint8_t>(core::StatusCode::kOverloaded),
              "shed");
  rec.refused(0, 4.0, ui::PageEvent{-1},
              static_cast<std::uint8_t>(core::StatusCode::kDeadlineExceeded));

  const auto restored = Recording::deserialize(rec.serialize());
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), 5u);
  EXPECT_EQ(restored->world.overload.applyDeadlineUs, 50000u);
  EXPECT_EQ(restored->world.overload.shedP99Us, 2000u);
  EXPECT_EQ(restored->world.overload.shedQueueDepth, 60u);
  EXPECT_EQ(restored->world.overload.healthWindow, 8u);
  EXPECT_EQ(restored->world.overload.clockAdvanceUsPerStep, 500u);
  EXPECT_TRUE(restored->world.overload.active());

  const auto& steps = restored->steps();
  EXPECT_EQ(steps[1].refusal, 0);
  EXPECT_EQ(steps[2].kind, StepKind::kSubmit);
  EXPECT_EQ(steps[2].note, "queued");
  EXPECT_EQ(ui::eventTypeName(steps[2].event), "time_window");
  EXPECT_EQ(steps[3].kind, StepKind::kEvent);
  EXPECT_EQ(steps[3].refusal,
            static_cast<std::uint8_t>(core::StatusCode::kOverloaded));
  EXPECT_EQ(ui::eventTypeName(steps[3].event), "brush_stroke");
  EXPECT_EQ(steps[4].refusal,
            static_cast<std::uint8_t>(core::StatusCode::kDeadlineExceeded));
  EXPECT_EQ(restored->refusedCount(), 2u);
  // Refusal-tagged steps are part of the event stream (kEvent kind);
  // kSubmit counts as queued traffic, not an applied event.
  EXPECT_EQ(restored->eventCount(), 3u);
}

TEST(RecordingTest, RejectsUnknownRefusalCodesAndRefusedLifecycleSteps) {
  {  // refusal byte beyond the status vocabulary
    Recording rec;
    rec.admit(0, 0.0);
    rec.refused(0, 1.0, ui::PageEvent{1},
                static_cast<std::uint8_t>(core::StatusCode::kOverloaded));
    std::vector<std::uint8_t> bytes(rec.serialize().bytes());
    // The refused step's refusal byte sits at header(8) + world(104) +
    // count(4) + admit step(19) + kind(1) + tenant(4) + time(8).
    const std::size_t refusalOffset = 8 + 104 + 4 + 19 + 13;
    ASSERT_EQ(bytes[refusalOffset],
              static_cast<std::uint8_t>(core::StatusCode::kOverloaded));
    bytes[refusalOffset] =
        static_cast<std::uint8_t>(core::StatusCode::kOverloaded) + 1;
    EXPECT_FALSE(Recording::deserialize(util::MessageBuffer(std::move(bytes))));
  }
  {  // a refusal tag on a lifecycle step is structurally invalid
    util::MessageBuffer buf;
    buf.putU32(Recording::kMagic);
    buf.putU32(2);
    putWorldBytes(buf, WorldSpec{}, /*version=*/2);
    buf.putU32(1);
    buf.putU8(0);  // kAdmit
    buf.putU32(0);
    buf.putU64(std::bit_cast<std::uint64_t>(0.0));
    buf.putU8(static_cast<std::uint8_t>(core::StatusCode::kOverloaded));
    buf.putU8(0xFF);  // no-event marker
    buf.putString("");
    EXPECT_FALSE(Recording::deserialize(std::move(buf)));
  }
}

TEST(RecordingTest, StillParsesVersion1Payloads) {
  // A v1 payload: no overload plan in the world, no refusal bytes in the
  // steps. Old fleet recordings must keep replaying.
  WorldSpec world;
  world.datasetSeed = 31337;
  world.trajectoryCount = 9;
  world.wireDropProbability = 0.125;
  util::MessageBuffer buf;
  buf.putU32(Recording::kMagic);
  buf.putU32(1);
  putWorldBytes(buf, world, /*version=*/1);
  buf.putU32(3);
  buf.putU8(0);  // kAdmit, tenant 0, t=0
  buf.putU32(0);
  buf.putU64(std::bit_cast<std::uint64_t>(0.0));
  buf.putU8(0xFF);
  buf.putString("");
  buf.putU8(1);  // kEvent, tenant 0, t=1
  buf.putU32(0);
  buf.putU64(std::bit_cast<std::uint64_t>(1.0));
  ui::serializeEvent(buf, ui::PageEvent{1});
  buf.putString("old");
  buf.putU8(2);  // kClose, tenant 0, t=2
  buf.putU32(0);
  buf.putU64(std::bit_cast<std::uint64_t>(2.0));
  buf.putU8(0xFF);
  buf.putString("");

  const auto rec = Recording::deserialize(std::move(buf));
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->size(), 3u);
  EXPECT_EQ(rec->world.datasetSeed, 31337u);
  EXPECT_EQ(rec->world.wireDropProbability, 0.125);
  // v1 worlds decode with the overload machinery disarmed, all accepted.
  EXPECT_FALSE(rec->world.overload.active());
  EXPECT_EQ(rec->refusedCount(), 0u);
  EXPECT_EQ(rec->steps()[1].refusal, 0);
  EXPECT_EQ(ui::eventTypeName(rec->steps()[1].event), "page");
  EXPECT_EQ(rec->steps()[1].note, "old");

  // A v2 payload that lies about being v1 (extra overload bytes) is
  // trailing garbage, not silently misparsed.
  util::MessageBuffer lying;
  lying.putU32(Recording::kMagic);
  lying.putU32(1);
  putWorldBytes(lying, world, /*version=*/2);
  lying.putU32(0);
  EXPECT_FALSE(Recording::deserialize(std::move(lying)));
}

// --- format v3: progressive plan + kRefine steps -----------------------------

TEST(RecordingTest, RoundTripsProgressivePlanAndRefineSteps) {
  Recording rec;
  rec.world.datasetSeed = 606;
  rec.world.progressive.shardCapacity = 64;
  rec.world.progressive.somRows = 4;
  rec.world.progressive.somCols = 5;
  rec.admit(0, 0.0);
  rec.event(0, 1.0, ui::BrushStrokeEvent{0, {1.0f, 2.0f}, 5.0f});
  rec.refine(0, 2.0, 8);
  rec.refineRefused(0, 3.0, 16,
                    static_cast<std::uint8_t>(core::StatusCode::kOverloaded));
  rec.close(0, 4.0);

  const auto restored = Recording::deserialize(rec.serialize());
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), 5u);
  EXPECT_TRUE(restored->world.progressive.active());
  EXPECT_EQ(restored->world.progressive.shardCapacity, 64u);
  EXPECT_EQ(restored->world.progressive.somRows, 4u);
  EXPECT_EQ(restored->world.progressive.somCols, 5u);

  const auto& steps = restored->steps();
  EXPECT_EQ(steps[2].kind, StepKind::kRefine);
  EXPECT_EQ(steps[2].refineBudget, 8u);
  EXPECT_EQ(steps[2].refusal, 0);
  EXPECT_EQ(steps[3].kind, StepKind::kRefine);
  EXPECT_EQ(steps[3].refineBudget, 16u);
  EXPECT_EQ(steps[3].refusal,
            static_cast<std::uint8_t>(core::StatusCode::kOverloaded));
  EXPECT_EQ(restored->refusedCount(), 1u);
  // Refine steps are not event traffic.
  EXPECT_EQ(restored->eventCount(), 1u);
}

TEST(RecordingTest, StillParsesVersion2PayloadsWithInertProgressivePlan) {
  // A hand-authored v2 payload (pre-progressive fleet recording): no
  // progressive-plan bytes in the world, no kRefine steps. It must parse
  // with the progressive machinery disarmed.
  WorldSpec world;
  world.datasetSeed = 2024;
  world.overload.applyDeadlineUs = 1000;
  util::MessageBuffer buf;
  buf.putU32(Recording::kMagic);
  buf.putU32(2);
  putWorldBytes(buf, world, /*version=*/2);
  buf.putU32(2);
  buf.putU8(0);  // kAdmit, tenant 0, t=0
  buf.putU32(0);
  buf.putU64(std::bit_cast<std::uint64_t>(0.0));
  buf.putU8(0);  // refusal
  buf.putU8(0xFF);
  buf.putString("");
  buf.putU8(3);  // kSubmit, tenant 0, t=1
  buf.putU32(0);
  buf.putU64(std::bit_cast<std::uint64_t>(1.0));
  buf.putU8(0);  // refusal
  ui::serializeEvent(buf, ui::PageEvent{1});
  buf.putString("");

  const auto rec = Recording::deserialize(std::move(buf));
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->size(), 2u);
  EXPECT_FALSE(rec->world.progressive.active());
  EXPECT_EQ(rec->world.overload.applyDeadlineUs, 1000u);
  EXPECT_EQ(rec->steps()[1].kind, StepKind::kSubmit);

  // A v2 payload must not smuggle a kRefine step: the kind is gated on
  // the version, not just the enum range.
  util::MessageBuffer refina;
  refina.putU32(Recording::kMagic);
  refina.putU32(2);
  putWorldBytes(refina, world, /*version=*/2);
  refina.putU32(1);
  refina.putU8(4);  // kRefine in a v2 stream
  refina.putU32(0);
  refina.putU64(std::bit_cast<std::uint64_t>(0.0));
  refina.putU8(0);
  refina.putU8(0xFF);
  refina.putU32(8);
  refina.putString("");
  EXPECT_FALSE(Recording::deserialize(std::move(refina)));
}

TEST(RecordingTest, RejectsCorruptProgressivePlansAndZeroRefineBudgets) {
  {  // active plan with a degenerate lattice
    util::MessageBuffer buf;
    buf.putU32(Recording::kMagic);
    buf.putU32(3);
    WorldSpec world;
    world.progressive.shardCapacity = 64;
    world.progressive.somRows = 0;
    world.progressive.somCols = 4;
    putWorldBytes(buf, world, /*version=*/3);
    buf.putU32(0);
    EXPECT_FALSE(Recording::deserialize(std::move(buf)));
  }
  {  // absurd shard capacity (bit-flip territory)
    util::MessageBuffer buf;
    buf.putU32(Recording::kMagic);
    buf.putU32(3);
    WorldSpec world;
    world.progressive.shardCapacity = 0x40000000u;
    world.progressive.somRows = 4;
    world.progressive.somCols = 4;
    putWorldBytes(buf, world, /*version=*/3);
    buf.putU32(0);
    EXPECT_FALSE(Recording::deserialize(std::move(buf)));
  }
  {  // a zero refine budget can only be corruption
    util::MessageBuffer buf;
    buf.putU32(Recording::kMagic);
    buf.putU32(3);
    putWorldBytes(buf, WorldSpec{}, /*version=*/3);
    buf.putU32(1);
    buf.putU8(4);  // kRefine
    buf.putU32(0);
    buf.putU64(std::bit_cast<std::uint64_t>(0.0));
    buf.putU8(0);
    buf.putU8(0xFF);
    buf.putU32(0);  // refineBudget 0
    buf.putString("");
    EXPECT_FALSE(Recording::deserialize(std::move(buf)));
  }
}

TEST(RecordingTest, RefineRoundTripSurvivesSingleByteCorruption) {
  // 1-bit/byte corruption fuzz over a v3 recording with refine steps:
  // deserialize must never crash, and whenever it still parses, a second
  // round trip must be byte-stable (no value can silently mutate into a
  // differently-serializing one).
  Recording rec;
  rec.world.progressive.shardCapacity = 32;
  rec.world.progressive.somRows = 3;
  rec.world.progressive.somCols = 3;
  rec.admit(0, 0.0);
  rec.refine(0, 1.0, 4);
  rec.event(0, 2.0, ui::PageEvent{1});
  rec.refineRefused(0, 3.0, 2,
                    static_cast<std::uint8_t>(core::StatusCode::kOverloaded));
  const std::vector<std::uint8_t> bytes(rec.serialize().bytes());

  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      std::vector<std::uint8_t> corrupt(bytes);
      corrupt[i] ^= mask;
      const auto parsed =
          Recording::deserialize(util::MessageBuffer(std::move(corrupt)));
      if (!parsed) continue;
      const auto again = Recording::deserialize(parsed->serialize());
      ASSERT_TRUE(again.has_value()) << "byte " << i << " mask " << int(mask);
      EXPECT_EQ(again->serialize().bytes(), parsed->serialize().bytes())
          << "byte " << i << " mask " << int(mask);
    }
  }
}

TEST(RecorderTest, CapturesRefusalsAsRefusalTaggedSteps) {
  WorldSpec spec;
  spec.trajectoryCount = 8;
  const traj::TrajectoryDataset dataset = makeDataset(spec);
  const auto context = core::SharedContext::create(dataset, spec.wallSpec());
  util::ManualClock clock;
  core::SessionService::Options options;
  options.eventQueueDepth = 1;
  options.shedQueueDepth = 2;
  options.clock = &clock;
  core::SessionService service(context, options);

  Recorder recorder(spec);
  recorder.attach(service);

  const auto a = service.admit();
  const auto b = service.admit();
  ASSERT_TRUE(service.submit(a.id, ui::PageEvent{1}).isOk());
  // Queue full: kBackpressure. The event was turned away, so it must be
  // recorded as a refusal, not as applied traffic.
  ASSERT_TRUE(service.submit(a.id, ui::PageEvent{-1}).isBackpressure());
  // Aggregate depth 2 after this: the node starts Shedding.
  ASSERT_TRUE(service.submit(b.id, ui::TimeWindowEvent{0.0f, 30.0f}).isOk());
  ASSERT_TRUE(
      service.apply(b.id, ui::BrushClearEvent{255}).isOverloaded());

  const Recording rec = recorder.finish();
  ASSERT_EQ(rec.size(), 6u);  // 2 admits + 2 accepted + 2 refused
  EXPECT_EQ(rec.refusedCount(), 2u);
  const auto& steps = rec.steps();
  EXPECT_EQ(steps[2].refusal, 0);  // accepted submit
  EXPECT_EQ(steps[3].refusal,
            static_cast<std::uint8_t>(core::StatusCode::kBackpressure));
  EXPECT_EQ(steps[3].kind, StepKind::kEvent);
  EXPECT_EQ(steps[5].refusal,
            static_cast<std::uint8_t>(core::StatusCode::kOverloaded));
  EXPECT_EQ(ui::eventTypeName(steps[5].event), "brush_clear");

  // The refusal-tagged stream round-trips bit-true.
  const auto restored = Recording::deserialize(rec.serialize());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->refusedCount(), 2u);
  EXPECT_EQ(restored->steps()[5].refusal, steps[5].refusal);
}

TEST(RecorderTest, CapturesRefineCallsWithRequestedBudget) {
  WorldSpec spec;
  spec.trajectoryCount = 8;
  const traj::TrajectoryDataset dataset = makeDataset(spec);
  const auto context = core::SharedContext::create(dataset, spec.wallSpec());
  util::ManualClock clock;
  core::SessionService::Options options;
  options.eventQueueDepth = 1;
  options.shedQueueDepth = 2;
  options.clock = &clock;
  core::SessionService service(context, options);

  Recorder recorder(spec);
  recorder.attach(service);

  const auto a = service.admit();
  const auto b = service.admit();
  // Healthy: refine() succeeds (a no-op on a non-progressive world) and
  // must be recorded with the *requested* budget — replay re-issues the
  // same call, so any health-based scaling is re-derived, not baked in.
  ASSERT_TRUE(service.refine(a.id, 8).isOk());
  // Push the node into Shedding, then refine() is turned away and the
  // refusal must be captured on the step.
  ASSERT_TRUE(service.submit(a.id, ui::PageEvent{1}).isOk());
  ASSERT_TRUE(service.submit(b.id, ui::TimeWindowEvent{0.0f, 30.0f}).isOk());
  ASSERT_TRUE(service.refine(b.id, 4).isOverloaded());

  const Recording rec = recorder.finish();
  ASSERT_EQ(rec.size(), 6u);  // 2 admits + refine + 2 submits + refused refine
  const auto& steps = rec.steps();
  EXPECT_EQ(steps[2].kind, StepKind::kRefine);
  EXPECT_EQ(steps[2].tenant, 0u);
  EXPECT_EQ(steps[2].refineBudget, 8u);
  EXPECT_EQ(steps[2].refusal, 0);
  EXPECT_EQ(steps[5].kind, StepKind::kRefine);
  EXPECT_EQ(steps[5].tenant, 1u);
  EXPECT_EQ(steps[5].refineBudget, 4u);
  EXPECT_EQ(steps[5].refusal,
            static_cast<std::uint8_t>(core::StatusCode::kOverloaded));

  const auto restored = Recording::deserialize(rec.serialize());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->steps()[2].refineBudget, 8u);
  EXPECT_EQ(restored->steps()[5].refusal, steps[5].refusal);
}

TEST(RecorderTest, CapturesServiceFlowInStreamOrder) {
  WorldSpec spec;
  spec.trajectoryCount = 8;
  const traj::TrajectoryDataset dataset = makeDataset(spec);
  const auto context = core::SharedContext::create(dataset, spec.wallSpec());
  core::SessionService service(context);

  Recorder recorder(spec);
  recorder.attach(service);

  const auto a = service.admit();
  const auto b = service.admit();
  ASSERT_TRUE(a.status.isOk());
  ASSERT_TRUE(b.status.isOk());

  // Mixed submit()+drain and direct apply() traffic, interleaved tenants.
  ASSERT_TRUE(service.submit(a.id, ui::BrushStrokeEvent{0, {1, 2}, 5}).isOk());
  ASSERT_TRUE(service.apply(b.id, ui::TimeWindowEvent{0, 30}).isOk());
  ASSERT_TRUE(service.submit(a.id, ui::TimeScaleEvent{0.5f}).isOk());
  ASSERT_TRUE(service.drain(a.id).isOk());
  // A rejected event (bad preset) must be recorded too: a replay has to
  // reproduce the rejection deterministically.
  EXPECT_FALSE(service.apply(b.id, ui::LayoutSwitchEvent{9}).isOk());
  ASSERT_TRUE(service.close(b.id).isOk());

  const Recording rec = recorder.finish();
  ASSERT_EQ(rec.size(), 7u);
  const auto& steps = rec.steps();
  EXPECT_EQ(steps[0].kind, StepKind::kAdmit);
  EXPECT_EQ(steps[0].tenant, 0u);
  EXPECT_EQ(steps[1].kind, StepKind::kAdmit);
  EXPECT_EQ(steps[1].tenant, 1u);
  // Submitted events are observed at enqueue (stream-order position), so
  // a's stroke precedes b's window even though a drained later.
  EXPECT_EQ(steps[2].tenant, 0u);
  EXPECT_EQ(ui::eventTypeName(steps[2].event), "brush_stroke");
  EXPECT_EQ(steps[3].tenant, 1u);
  EXPECT_EQ(ui::eventTypeName(steps[3].event), "time_window");
  EXPECT_EQ(steps[4].tenant, 0u);
  EXPECT_EQ(ui::eventTypeName(steps[4].event), "time_scale");
  EXPECT_EQ(steps[5].tenant, 1u);
  EXPECT_EQ(ui::eventTypeName(steps[5].event), "layout_switch");
  EXPECT_EQ(steps[6].kind, StepKind::kClose);
  EXPECT_EQ(steps[6].tenant, 1u);
  // Deterministic default stamps: 0.1 s per recorded step.
  EXPECT_DOUBLE_EQ(steps[0].timeS, 0.0);
  EXPECT_DOUBLE_EQ(steps[3].timeS, 0.3);

  // finish() detached the hooks: further traffic is not recorded.
  ASSERT_TRUE(service.apply(a.id, ui::DepthOffsetEvent{2.0f}).isOk());
  EXPECT_EQ(recorder.size(), 0u);  // moved out, and no new captures
}

TEST(RecorderTest, IgnoresTenantsAdmittedBeforeAttach) {
  WorldSpec spec;
  spec.trajectoryCount = 8;
  const traj::TrajectoryDataset dataset = makeDataset(spec);
  const auto context = core::SharedContext::create(dataset, spec.wallSpec());
  core::SessionService service(context);

  const auto pre = service.admit();
  ASSERT_TRUE(pre.status.isOk());

  Recorder recorder(spec);
  recorder.attach(service);
  // Not ours: admitted before attach.
  ASSERT_TRUE(service.apply(pre.id, ui::DepthOffsetEvent{1.0f}).isOk());
  const auto post = service.admit();
  ASSERT_TRUE(service.apply(post.id, ui::DepthOffsetEvent{1.0f}).isOk());

  const Recording rec = recorder.finish();
  ASSERT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.steps()[0].kind, StepKind::kAdmit);
  EXPECT_EQ(rec.steps()[0].tenant, 0u);  // post is track 0: first *recorded*
  EXPECT_EQ(rec.steps()[1].kind, StepKind::kEvent);
  EXPECT_EQ(rec.steps()[1].tenant, 0u);
}

TEST(RecordingTest, FromScriptAdmitsTrackZeroAndKeepsEventOrder) {
  ui::InputScript script;
  script.record(1.0, ui::BrushStrokeEvent{0, {0, 0}, 5}, "first");
  script.record(2.0, ui::PageEvent{1});
  WorldSpec spec;
  const Recording rec = Recording::fromScript(spec, script);
  ASSERT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.steps()[0].kind, StepKind::kAdmit);
  EXPECT_DOUBLE_EQ(rec.steps()[0].timeS, 1.0);
  EXPECT_EQ(ui::eventTypeName(rec.steps()[1].event), "brush_stroke");
  EXPECT_EQ(rec.steps()[1].note, "first");
  EXPECT_EQ(ui::eventTypeName(rec.steps()[2].event), "page");
  EXPECT_EQ(rec.tenantCount(), 1u);
}

// --- InputScript timestamp ordering (the record() contract) -----------------

TEST(InputScriptOrderTest, MonotonicRecordsAppendInOrder) {
  ui::InputScript script;
  script.record(1.0, ui::PageEvent{1});
  script.record(2.0, ui::PageEvent{-1});
  script.record(2.0, ui::BrushClearEvent{0});  // equal stamp: keeps order
  script.record(3.0, ui::TimeScaleEvent{0.5f});
  ASSERT_EQ(script.size(), 4u);
  EXPECT_DOUBLE_EQ(script.events()[0].timeS, 1.0);
  EXPECT_EQ(ui::eventTypeName(script.events()[1].event), "page");
  EXPECT_EQ(ui::eventTypeName(script.events()[2].event), "brush_clear");
  EXPECT_DOUBLE_EQ(script.durationS(), 3.0);
}

TEST(InputScriptOrderTest, OutOfOrderRecordsAreStablyInserted) {
  ui::InputScript script;
  script.record(1.0, ui::PageEvent{1});
  script.record(3.0, ui::PageEvent{-1});
  script.record(2.0, ui::BrushClearEvent{0});   // lands between
  script.record(1.0, ui::TimeScaleEvent{0.5f});  // after the existing 1.0
  ASSERT_EQ(script.size(), 4u);
  EXPECT_EQ(ui::eventTypeName(script.events()[0].event), "page");
  EXPECT_EQ(ui::eventTypeName(script.events()[1].event), "time_scale");
  EXPECT_EQ(ui::eventTypeName(script.events()[2].event), "brush_clear");
  EXPECT_EQ(ui::eventTypeName(script.events()[3].event), "page");
  double last = -1.0;
  for (const ui::TimedEvent& e : script.events()) {
    EXPECT_LE(last, e.timeS);
    last = e.timeS;
  }
}

TEST(InputScriptOrderTest, NonFiniteStampsAreClampedToScriptEnd) {
  ui::InputScript script;
  script.record(std::numeric_limits<double>::quiet_NaN(), ui::PageEvent{1});
  EXPECT_DOUBLE_EQ(script.events()[0].timeS, 0.0);
  script.record(5.0, ui::PageEvent{-1});
  script.record(std::numeric_limits<double>::infinity(),
                ui::BrushClearEvent{0});
  ASSERT_EQ(script.size(), 3u);
  EXPECT_DOUBLE_EQ(script.events()[2].timeS, 5.0);
  EXPECT_DOUBLE_EQ(script.durationS(), 5.0);
  // The clamped script still round-trips as a recording (serialization
  // would reject a non-finite stamp).
  EXPECT_TRUE(Recording::deserialize(
                  Recording::fromScript(WorldSpec{}, script).serialize())
                  .has_value());
}

TEST(InputScriptOrderTest, DeserializeRejectsNonFiniteStampsAndHostileCounts) {
  ui::InputScript script;
  script.record(1.0, ui::PageEvent{1});
  script.record(2.0, ui::PageEvent{-1});
  // A script persists as a recording: the step count, an admit step
  // (kind, tenant, stamp, refusal, no-event marker, empty note), then one
  // event step per script event.
  const util::MessageBuffer buf =
      Recording::fromScript(WorldSpec{}, script).serialize();
  const std::size_t countOffset = 8 + 104;
  const std::size_t firstStamp = countOffset + 4 + 19 + 1 + 4;
  const double one = 1.0;
  ASSERT_EQ(std::memcmp(buf.bytes().data() + firstStamp, &one, sizeof one), 0);

  {  // NaN stamp in the wire bytes (bit-flip territory)
    std::vector<std::uint8_t> corrupt(buf.bytes());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::memcpy(corrupt.data() + firstStamp, &nan, sizeof nan);
    EXPECT_FALSE(
        Recording::deserialize(util::MessageBuffer(std::move(corrupt))));
  }
  {  // count field far beyond what the payload can hold
    std::vector<std::uint8_t> corrupt(buf.bytes());
    const std::uint32_t huge = 0x7FFFFFFFu;
    std::memcpy(corrupt.data() + countOffset, &huge, sizeof huge);
    EXPECT_FALSE(
        Recording::deserialize(util::MessageBuffer(std::move(corrupt))));
  }
  EXPECT_TRUE(Recording::deserialize(buf).has_value());
}

// --- progressive replays are deterministic -------------------------------------

/// A hand-built v3 recording: two tenants drill into the anytime overview
/// with dabs (one erasing), window edits and clears, and refine steps of
/// budget 1–3 interleaved with the edits, so some edits begin before the
/// previous one converged. The anytime query keeps verdicts from edit to
/// edit and reads resident shards first, so each refine's frame depends on
/// the edits before it and on the shared shard cache.
Recording progressiveDrillRecording() {
  Recording rec;
  rec.world.datasetSeed = 2718;
  rec.world.trajectoryCount = 160;
  rec.world.progressive.shardCapacity = 16;
  rec.world.progressive.somRows = 3;
  rec.world.progressive.somCols = 3;

  double t = 0.0;
  auto edit = [&](std::uint32_t tenant, const ui::Event& event) {
    rec.event(tenant, t += 0.25, event);
  };
  auto refine = [&](std::uint32_t tenant, std::uint32_t budget) {
    rec.refine(tenant, t += 0.25, budget);
  };
  const ui::Event dabWest = ui::BrushStrokeEvent{0, {-20.0f, 5.0f}, 12.0f};
  const ui::Event dabEast = ui::BrushStrokeEvent{1, {22.0f, -3.0f}, 10.0f};
  const ui::Event dabNorth = ui::BrushStrokeEvent{2, {0.0f, 25.0f}, 9.0f};
  const ui::Event erase = ui::BrushStrokeEvent{255, {-18.0f, 4.0f}, 6.0f};
  const ui::Event dabCentre = ui::BrushStrokeEvent{1, {0.0f, 0.0f}, 8.0f};
  const ui::Event narrow = ui::TimeWindowEvent{10.0f, 80.0f};
  const ui::Event early = ui::TimeWindowEvent{0.0f, 40.0f};
  const ui::Event widen = ui::TimeWindowEvent{0.0f, 400.0f};
  const ui::Event clearWest = ui::BrushClearEvent{0};
  const ui::Event clearAll = ui::BrushClearEvent{255};

  rec.admit(0, t);
  rec.admit(1, t += 0.25);
  edit(0, dabWest);
  refine(0, 1);
  refine(0, 2);
  edit(1, dabEast);
  refine(1, 3);
  edit(0, narrow);  // tenant 0 had not converged
  edit(0, dabNorth);
  refine(0, 2);
  refine(0, 1);
  edit(1, erase);
  refine(1, 2);
  edit(1, early);
  refine(1, 3);
  refine(1, 3);
  edit(0, erase);
  refine(0, 1);
  edit(0, clearWest);
  refine(0, 3);
  edit(1, dabCentre);
  refine(1, 1);
  edit(0, widen);
  for (int i = 0; i < 4; ++i) refine(0, 3);
  edit(1, clearAll);
  refine(1, 2);
  edit(1, dabWest);
  for (int i = 0; i < 4; ++i) refine(1, 3);
  edit(0, dabCentre);
  for (int i = 0; i < 4; ++i) refine(0, 2);
  rec.close(1, t += 0.25);
  rec.close(0, t += 0.25);
  return rec;
}

TEST(ProgressiveReplayTest, HashesMatchAcrossThreadsCachesAndReruns) {
  const Recording rec = progressiveDrillRecording();
  Runner reference(rec);
  const RunReport want = reference.run();
  ASSERT_EQ(want.steps.size(), rec.size());
  EXPECT_EQ(want.eventsRejected, 0u);
  EXPECT_EQ(want.refineSteps, 24u);
  EXPECT_GT(want.shardsRefined, 0u);

  for (const int threads : {0, 4, 8}) {
    for (const bool sharedCache : {true, false}) {
      RunnerOptions options;
      options.renderThreads = threads;
      options.useSharedCache = sharedCache;
      Runner runner(rec, options);
      const RunReport got = runner.run();
      EXPECT_EQ(got.frameHashes(), want.frameHashes())
          << threads << " render threads, shared cache "
          << (sharedCache ? "on" : "off");
      EXPECT_EQ(got.shardsRefined, want.shardsRefined);
    }
  }
  // A second run in the same process rebuilds the world from scratch.
  Runner again(rec);
  EXPECT_EQ(again.run().frameHashes(), want.frameHashes());
}

}  // namespace
}  // namespace svq::replay
