//===- tests/flight_test.cpp - Binary flight recorder tests ---------------===//
///
/// Covers the flight recorder tentpole: FlightRing wraparound semantics
/// (newest-N, Dropped marker, never torn), the exit-3 abnormal path still
/// flushing a decodable recording, in-process round-trip through
/// FlightRecorder's file writer, and a 4-thread end-to-end run whose
/// decoded timeline satisfies the handshake pairing invariants
/// flight_report.py checks. That attaching the recorder leaves every
/// deterministic counter unchanged is checked with the other attachments
/// in session_test.cpp.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "driver/Cli.h"
#include "support/FlightRecorder.h"
#include "workloads/Programs.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <set>

using namespace tfgc;
using namespace tfgc::test;
namespace wl = tfgc::workloads;

namespace {

/// Decodes a flight file (header validated) into events.
std::vector<FlightEvent> decodeFlightFile(const std::string &Path) {
  std::string Bytes = slurp(Path);
  EXPECT_GE(Bytes.size(), 24u) << Path;
  EXPECT_EQ(Bytes.compare(0, 8, "TFGCFLR1"), 0) << Path;
  uint32_t Ver, RecBytes;
  std::memcpy(&Ver, Bytes.data() + 8, 4);
  std::memcpy(&RecBytes, Bytes.data() + 12, 4);
  EXPECT_EQ(Ver, FlightRecorder::Version);
  EXPECT_EQ(RecBytes, sizeof(FlightEvent));
  size_t Payload = Bytes.size() - 24;
  EXPECT_EQ(Payload % sizeof(FlightEvent), 0u)
      << Path << " has a torn trailing record";
  std::vector<FlightEvent> Events(Payload / sizeof(FlightEvent));
  std::memcpy(Events.data(), Bytes.data() + 24, Payload);
  return Events;
}

size_t countType(const std::vector<FlightEvent> &Es, FlightEventType T) {
  size_t N = 0;
  for (const FlightEvent &E : Es)
    N += E.Type == (uint8_t)T;
  return N;
}

//===----------------------------------------------------------------------===//
// FlightRing wraparound: newest-N, Dropped marker, deterministic
//===----------------------------------------------------------------------===//

TEST(FlightRing, WraparoundKeepsNewestAndMarksDropped) {
  auto Origin = std::chrono::steady_clock::now();
  FlightRing R(8, /*Tid=*/3, Origin);
  ASSERT_EQ(R.capacity(), 8u);
  for (uint64_t I = 0; I < 20; ++I)
    R.record(FlightEventType::TlabRefill, 0, I);
  EXPECT_EQ(R.recordsWritten(), 20u);

  std::vector<FlightEvent> Out;
  EXPECT_EQ(R.drain(Out), 12u);
  // One Dropped marker then exactly the newest 8, in write order.
  ASSERT_EQ(Out.size(), 9u);
  EXPECT_EQ(Out[0].Type, (uint8_t)FlightEventType::Dropped);
  EXPECT_EQ(Out[0].ArgA, 12u);
  EXPECT_EQ(Out[0].Tid, 3u);
  // The marker carries the oldest survivor's timestamp so the chunk
  // stays sortable.
  EXPECT_EQ(Out[0].TimeNs, Out[1].TimeNs);
  for (size_t I = 1; I < Out.size(); ++I) {
    EXPECT_EQ(Out[I].Type, (uint8_t)FlightEventType::TlabRefill);
    EXPECT_EQ(Out[I].Tid, 3u);
    EXPECT_EQ(Out[I].ArgA, 12 + (I - 1)); // newest-8 = ordinals 12..19
    if (I > 1) {
      EXPECT_GE(Out[I].TimeNs, Out[I - 1].TimeNs);
    }
  }
  EXPECT_EQ(R.droppedTotal(), 12u);

  // A second drain sees only what came after — no re-delivery, no
  // spurious Dropped marker.
  Out.clear();
  EXPECT_EQ(R.drain(Out), 0u);
  EXPECT_TRUE(Out.empty());
  for (uint64_t I = 20; I < 24; ++I)
    R.record(FlightEventType::VmEpoch, 0, I);
  EXPECT_EQ(R.drain(Out), 0u);
  ASSERT_EQ(Out.size(), 4u);
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(Out[I].ArgA, 20 + I);
}

TEST(FlightRing, CapacityRoundsUpToPowerOfTwo) {
  auto Origin = std::chrono::steady_clock::now();
  EXPECT_EQ(FlightRing(1, 0, Origin).capacity(), 8u);
  EXPECT_EQ(FlightRing(9, 0, Origin).capacity(), 16u);
  EXPECT_EQ(FlightRing(64, 0, Origin).capacity(), 64u);
}

//===----------------------------------------------------------------------===//
// FlightRecorder file round-trip
//===----------------------------------------------------------------------===//

TEST(FlightRecorder, FileRoundTripAndChunkSink) {
  std::string Path = tmpPath("roundtrip.bin");
  std::remove(Path.c_str());
  std::string ChunkBody;
  {
    FlightRecorder F(/*NumTasks=*/2, /*NumWorkers=*/1, /*BufferKb=*/1);
    std::string Err;
    ASSERT_TRUE(F.openFile(Path, Err)) << Err;
    F.setChunkSink([&](const std::string &C) { ChunkBody = C; });
    F.taskRing(0).record(FlightEventType::ThreadStart);
    F.taskRing(1).record(FlightEventType::ThreadStart);
    F.gcRing().record(FlightEventType::SafepointArm, 1, 100);
    F.workerRing(0).record(FlightEventType::TraceWorkerBegin, 0);
    F.finish();
    EXPECT_EQ(F.recordsFiled(), 4u);
    EXPECT_EQ(F.droppedTotal(), 0u);
  }
  std::vector<FlightEvent> Events = decodeFlightFile(Path);
  ASSERT_EQ(Events.size(), 4u);
  // Time-sorted within the chunk, ring identity preserved.
  std::multiset<uint8_t> Tids;
  for (size_t I = 0; I < Events.size(); ++I) {
    Tids.insert(Events[I].Tid);
    if (I) {
      EXPECT_GE(Events[I].TimeNs, Events[I - 1].TimeNs);
    }
  }
  EXPECT_EQ(Tids, (std::multiset<uint8_t>{0, 1, FlightRecorder::WorkerTidBase,
                                          FlightRecorder::GcTid}));
  // The chunk sink saw the same records as a standalone document.
  ASSERT_EQ(ChunkBody.size(), 24 + 4 * sizeof(FlightEvent));
  EXPECT_EQ(ChunkBody.compare(0, 8, "TFGCFLR1"), 0);
  EXPECT_EQ(std::memcmp(ChunkBody.data() + 24, Events.data(),
                        4 * sizeof(FlightEvent)),
            0);
  // finish() is idempotent: destructor already ran it again above.
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Sequential end-to-end: decodable file, correct ring usage
//===----------------------------------------------------------------------===//

TEST(FlightCli, SequentialRunProducesCoherentTimeline) {
  std::string Flight = tmpPath("seq.bin");
  std::remove(Flight.c_str());
  CliOptions O;
  ASSERT_TRUE(parseOk({"--stress", "--heap=16384",
                       "--flight-out=" + Flight, "-e", wl::listChurn(20, 3)},
                      O));
  EXPECT_EQ(runTfgc(O), 0);

  std::vector<FlightEvent> Events = decodeFlightFile(Flight);
  // Globally monotone: drains happen only at world-stopped points.
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_GE(Events[I].TimeNs, Events[I - 1].TimeNs) << "record " << I;
  // The single mutator brackets the run on task ring 0.
  EXPECT_EQ(countType(Events, FlightEventType::ThreadStart), 1u);
  EXPECT_EQ(countType(Events, FlightEventType::ThreadExit), 1u);
  EXPECT_EQ(Events.front().Type, (uint8_t)FlightEventType::ThreadStart);
  EXPECT_EQ(Events.front().Tid, 0u);
  // Collections mirror as paired GcBegin/GcEnd on the GC ring.
  size_t Begins = countType(Events, FlightEventType::GcBegin);
  EXPECT_GE(Begins, 1u);
  EXPECT_EQ(Begins, countType(Events, FlightEventType::GcEnd));
  EXPECT_GE(countType(Events, FlightEventType::GcPhase), Begins);
  // No handshake machinery and no fuel polls in the sequential VM: the
  // stop flag is never armed, so the poll counter stays disarmed too.
  EXPECT_EQ(countType(Events, FlightEventType::SafepointArm), 0u);
  EXPECT_EQ(countType(Events, FlightEventType::ThreadPark), 0u);
  EXPECT_EQ(countType(Events, FlightEventType::VmEpoch), 0u);
  std::remove(Flight.c_str());
}

//===----------------------------------------------------------------------===//
// Abnormal exit (exit 3) still flushes a decodable recording
//===----------------------------------------------------------------------===//

TEST(FlightCli, AbnormalExitStillFlushesDecodableRecording) {
  std::string Flight = tmpPath("abnormal.bin");
  std::remove(Flight.c_str());
  CliOptions O;
  ASSERT_TRUE(parseOk({"--stress", "--heap=16384", "--verify",
                       "--inject-verify-violation",
                       "--flight-out=" + Flight, "-e", wl::listChurn(20, 3)},
                      O));
  EXPECT_EQ(runTfgc(O), 3);

  // Same artifact guarantee as --metrics-out: the recording is on disk,
  // header-valid, whole records only, with the run's collections in it.
  std::vector<FlightEvent> Events = decodeFlightFile(Flight);
  ASSERT_GE(Events.size(), 3u);
  EXPECT_GE(countType(Events, FlightEventType::GcBegin), 1u);
  EXPECT_EQ(countType(Events, FlightEventType::ThreadExit), 1u);
  std::remove(Flight.c_str());
}

//===----------------------------------------------------------------------===//
// 4-thread end-to-end: handshake pairing invariants
//===----------------------------------------------------------------------===//

TEST(FlightCli, ThreadedRunSatisfiesHandshakePairing) {
  std::string Flight = tmpPath("threaded.bin");
  std::remove(Flight.c_str());
  CliOptions O;
  ASSERT_TRUE(parseOk({"--threads=4", "--algo=generational", "--heap=65536",
                       "--nursery-bytes=4096", "--verify",
                       "--flight-out=" + Flight, "-e",
                       wl::generationalChurn(60, 8, 80)},
                      O));
  EXPECT_EQ(runTfgc(O), 0);

  std::vector<FlightEvent> Events = decodeFlightFile(Flight);
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_GE(Events[I].TimeNs, Events[I - 1].TimeNs) << "record " << I;
  EXPECT_EQ(countType(Events, FlightEventType::ThreadStart), 4u);
  EXPECT_EQ(countType(Events, FlightEventType::ThreadExit), 4u);

  bool AnyDropped = countType(Events, FlightEventType::Dropped) > 0;
  size_t Arms = countType(Events, FlightEventType::SafepointArm);
  EXPECT_EQ(countType(Events, FlightEventType::GcBegin),
            countType(Events, FlightEventType::GcEnd));
  if (!AnyDropped) {
    // Per-epoch pairing (flight_report.py --check asserts the same):
    // parks == resumes, and exactly one pause owner — either the last
    // parker (ThreadPark with ArgB=1) or an exiting thread's handoff.
    std::map<uint32_t, int> Parks, Resumes, Owners;
    for (const FlightEvent &E : Events) {
      if (E.Type == (uint8_t)FlightEventType::ThreadPark) {
        ++Parks[E.Arg32];
        if (E.ArgB)
          ++Owners[E.Arg32];
      } else if (E.Type == (uint8_t)FlightEventType::ThreadResume) {
        ++Resumes[E.Arg32];
      } else if (E.Type == (uint8_t)FlightEventType::PendingHandoff) {
        ++Owners[E.Arg32];
      }
    }
    EXPECT_EQ(Parks, Resumes);
    EXPECT_EQ(Owners.size(), Arms) << "every armed epoch has a pause owner";
    for (const auto &[Epoch, N] : Owners)
      EXPECT_EQ(N, 1) << "epoch " << Epoch;
    // Worker begin/end pair up per collection.
    EXPECT_EQ(countType(Events, FlightEventType::TraceWorkerBegin),
              countType(Events, FlightEventType::TraceWorkerEnd));
  }
  std::remove(Flight.c_str());
}

//===----------------------------------------------------------------------===//
// Flag validation
//===----------------------------------------------------------------------===//

TEST(FlightCli, FlagValidation) {
  CliOptions O;
  std::string Err;
  bool HelpOnly = false;
  EXPECT_FALSE(parseCli({"--flight-buffer-kb=16", "-e", "1"}, O, Err,
                        HelpOnly));
  EXPECT_NE(Err.find("--flight-out"), std::string::npos) << Err;

  CliOptions O2;
  ASSERT_TRUE(parseOk({"--flight-out=/tmp/f.bin", "--flight-buffer-kb=16",
                       "-e", "1"},
                      O2));
  EXPECT_EQ(O2.FlightOutPath, "/tmp/f.bin");
  EXPECT_EQ(O2.FlightBufferKb, 16u);
}

} // namespace
