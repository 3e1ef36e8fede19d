// navbench: end-to-end and per-layer benchmark of NavP solves on real data.
//
//   navbench --workload mm-dense|jacobi-threaded|jacobi-proc --seed N
//            --seconds S --trace 0|1 [--workdir DIR] [--corrupt-every K]
//
// Every solve runs a seed-generated input through the repository's public
// entry points (mm::navp_mm_2d, apps::jacobi_navp) and is checked against
// the sequential reference (mm::sequential_mm, apps::jacobi_sequential).
// A solve that throws or mismatches counts as failed and is left out of
// the timings.  --trace 0 prints the end-to-end metrics; --trace 1 is a
// separate run that records benchmark-side spans around every call into a
// layer, runs the layer probes at the workload's shapes, prints the
// per-layer metrics and writes the spans as one Chrome-trace JSON file
// into --workdir.  The last stdout line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --corrupt-every K damages every K-th gathered result before it is
// verified; it exists so the benchmark's own test can check that a wrong
// answer is counted as failed.
//
// See README.md in this directory for why each workload exists and which
// end-to-end metric each per-layer metric is expected to move.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/jacobi.h"
#include "linalg/block.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "machine/engine.h"
#include "machine/proc_machine.h"
#include "machine/threaded_machine.h"
#include "mm/navp_mm_2d.h"
#include "mm/sequential_mm.h"
#include "navp/cargo.h"
#include "navp/runtime.h"
#include "navp/trace.h"
#include "net/wire.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "support/rng.h"

namespace {

using navcpp::apps::JacobiConfig;
using navcpp::apps::JacobiGrid;
using navcpp::linalg::BlockGrid;
using navcpp::linalg::RealStorage;
using navcpp::machine::Engine;
using navcpp::machine::ProcMachine;
using navcpp::machine::ThreadedMachine;

// --- shapes ----------------------------------------------------------------

constexpr int kMmOrder = 1024;
constexpr int kMmBlock = 128;
constexpr int kMmPes = 4;  // 2x2 grid
// 60 interior rows divide over the workloads' 2 PEs and the crash drill's
// 3; 64 columns make each ghost row 512 bytes of cargo.
constexpr int kJacobiRows = 62;
constexpr int kJacobiCols = 64;
// Sweeps per solve: about 0.65 s on either engine, so a 30 s run holds
// some 40 solves and its tail percentile (ten samples beyond) sits near
// p75.  A burst of host load then has to slow a quarter of a run's
// solves, not a seventh, before it moves the tail.
constexpr int kJacobiSweepsThreaded = 150000;
constexpr int kJacobiSweepsProc = 14000;
// Both Jacobi workloads run the same program on 2 PEs, so they differ only
// in the engine.  Two PEs (plus the proc parent) leave a core of a 4-core
// host free: with every core busy, any other load on the host slowed a
// solve by up to a third and put whole runs' tails out of line.
constexpr int kJacobiPes = 2;
// Crash drill: a shorter Jacobi solve on a 3-PE ProcMachine with recovery
// on; PE 1's worker is SIGKILLed at a fixed cumulative transmit count,
// well inside the run's 4 * kDrillSweeps transmits.
constexpr int kDrillPes = 3;
constexpr int kDrillSweeps = 100;
constexpr std::uint64_t kDrillKillAt = 150;
constexpr int kDrillSolvesUntraced = 5;
constexpr int kDrillSolvesTraced = 3;
// The loop runs past --seconds until it has this many good solves, so the
// tail (ten samples beyond) is not below p66, but never past 1.1x
// --seconds: on a host slow enough to need more, the run still ends.
constexpr std::size_t kMinSolves = 30;
// Fraction of the measuring loop's time spent on sequential references.
// One sequential MM takes about three NavP solves.  A large share gives
// its median a few dozen samples and holds a 30 s run to about 50 MM
// solves on a busy host, so the tail (ten samples beyond) sits near p80,
// not p90: there a second-long stall of the host moved it from run to
// run.  A sequential Jacobi solve takes 0.4 of a threaded NavP one and a
// twenty-fifth of a proc one, so a small share still gives a dozen
// samples or more.
constexpr double kSeqShareMm = 0.7;
constexpr double kSeqShareJacobi = 0.1;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// `num / den`, or 0 when there is nothing to divide by (every solve of a
/// kind failed), so a broken run still prints a JSON result.
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile of `v` that still has at least ten samples
/// beyond it (the sample itself, its percentile, and the sample count),
/// but never below the median: a run slow enough to hold fewer than 21
/// solves reports its median rather than a "tail" under it.
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
  std::size_t samples = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  if (v.size() < 21) {
    t.value = median(std::move(v));
    return t;
  }
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() - 11;
  t.value = v[k];
  t.percentile = 100.0 * static_cast<double>(k + 1) /
                 static_cast<double>(v.size());
  return t;
}

// --- benchmark-side spans --------------------------------------------------

/// In-memory span log, written once as Chrome-trace JSON at exit through
/// obs::chrome_trace_json.  Spans nest by time on the single benchmark
/// thread (PE track 0).  A span's label is "layer/name", plus "#id" when an
/// id ties the spans of one solve (or set-up) together.
class Spans {
 public:
  class Scope {
   public:
    Scope(Spans* spans, const char* name, const char* layer, long id)
        : spans_(spans), name_(name), layer_(layer), id_(id),
          start_(now_s()) {}
    ~Scope() {
      if (!spans_->enabled_) return;
      navcpp::navp::TraceSpan span;
      span.t0 = start_ - spans_->origin_;
      span.t1 = now_s() - spans_->origin_;
      span.label = std::string(layer_) + "/" + name_;
      if (id_ >= 0) span.label += "#" + std::to_string(id_);
      spans_->records_.push_back(std::move(span));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    const char* name_;
    const char* layer_;
    long id_;
    double start_;
  };

  void set_enabled(bool on) { enabled_ = on; }
  Scope span(const char* name, const char* layer, long id = -1) {
    return Scope(this, name, layer, id);
  }

  /// Writes the trace to `path` if it passes obs::validate_chrome_trace;
  /// otherwise leaves the file alone and returns the validator's reason.
  std::string write_chrome(const std::string& path) const {
    navcpp::obs::ChromeTraceOptions opt;
    opt.process_name = "navbench";
    opt.pe_count = 1;
    const std::string json =
        navcpp::obs::chrome_trace_json(records_, {}, nullptr, opt);
    std::string error;
    if (!navcpp::obs::validate_chrome_trace(json, &error)) {
      return "invalid trace: " + error;
    }
    std::ofstream out(path);
    out << json;
    return out ? "" : "cannot write " + path;
  }

 private:
  bool enabled_ = false;
  double origin_ = now_s();
  std::vector<navcpp::navp::TraceSpan> records_;
};

// --- programs --------------------------------------------------------------

/// One workload's program: seeded inputs, a NavP solve on an engine, the
/// sequential reference, and verification of the last solve against it.
class Program {
 public:
  virtual ~Program() = default;
  /// Make the inputs.  One seed always gives the same inputs, so a stored
  /// reference stays valid when the inputs are generated again.
  virtual void generate(std::uint64_t seed) = 0;
  /// Run one NavP solve; returns the hop count.
  virtual std::uint64_t solve(Engine& engine) = 0;
  /// Run the sequential reference once.  The first call stores the
  /// reference; later calls must reproduce it bit for bit.
  virtual bool sequential() = 0;
  virtual bool verify() const = 0;
  virtual void corrupt() = 0;
  /// linalg::gemm_acc calls one solve makes.
  virtual std::uint64_t gemm_calls() const = 0;
};

class MmProgram final : public Program {
 public:
  MmProgram() {
    cfg_.order = kMmOrder;
    cfg_.block_order = kMmBlock;
  }

  void generate(std::uint64_t seed) override {
    using navcpp::linalg::Matrix;
    using navcpp::linalg::to_blocks;
    a_ = to_blocks(Matrix::random(kMmOrder, kMmOrder, 2 * seed + 1), kMmBlock);
    b_ = to_blocks(Matrix::random(kMmOrder, kMmOrder, 2 * seed + 2), kMmBlock);
  }

  std::uint64_t solve(Engine& engine) override {
    result_ = BlockGrid<RealStorage>(kMmOrder, kMmBlock);
    return navcpp::mm::navp_mm_2d(engine, cfg_,
                                  navcpp::mm::Navp2dVariant::kPhaseShifted,
                                  a_, b_, result_)
        .hops;
  }

  bool sequential() override {
    BlockGrid<RealStorage> c(kMmOrder, kMmBlock);
    navcpp::mm::sequential_mm(a_, b_, c);
    if (!has_reference_) {
      reference_ = std::move(c);
      has_reference_ = true;
      return true;
    }
    return max_diff(c, reference_) == 0.0;
  }

  bool verify() const override {
    // Phase shifting accumulates each C block in a rotated k order, so the
    // sums round differently from the i-j-k reference.
    return has_reference_ && max_diff(result_, reference_) <= 1e-9;
  }

  void corrupt() override { result_.at(0, 0).data[0] += 1.0; }

  std::uint64_t gemm_calls() const override {
    const std::uint64_t nb = kMmOrder / kMmBlock;
    return nb * nb * nb;
  }

 private:
  static double max_diff(const BlockGrid<RealStorage>& x,
                         const BlockGrid<RealStorage>& y) {
    double worst = 0.0;
    for (int bi = 0; bi < x.nb(); ++bi) {
      for (int bj = 0; bj < x.nb(); ++bj) {
        const auto& p = x.at(bi, bj).data;
        const auto& q = y.at(bi, bj).data;
        if (p.size() != q.size()) return INFINITY;
        for (std::size_t i = 0; i < p.size(); ++i) {
          const double d = std::fabs(p[i] - q[i]);
          if (!(d <= worst)) worst = d;  // NaN propagates as a mismatch
        }
      }
    }
    return worst;
  }

  navcpp::mm::MmConfig cfg_;
  BlockGrid<RealStorage> a_, b_, result_, reference_;
  bool has_reference_ = false;
};

class JacobiProgram final : public Program {
 public:
  explicit JacobiProgram(int sweeps) {
    cfg_.rows = kJacobiRows;
    cfg_.cols = kJacobiCols;
    cfg_.sweeps = sweeps;
  }

  void generate(std::uint64_t seed) override {
    initial_ = JacobiGrid::heated_plate(kJacobiRows, kJacobiCols);
    navcpp::support::Rng rng(seed);
    for (int r = 1; r + 1 < kJacobiRows; ++r) {
      for (int c = 1; c + 1 < kJacobiCols; ++c) {
        initial_.at(r, c) = rng.uniform(0.0, 1.0);
      }
    }
  }

  std::uint64_t solve(Engine& engine) override {
    navcpp::apps::JacobiStats stats;
    result_ = navcpp::apps::jacobi_navp(
        engine, cfg_, navcpp::apps::JacobiVariant::kDataflow, initial_,
        &stats);
    return stats.hops;
  }

  bool sequential() override {
    JacobiGrid g = navcpp::apps::jacobi_sequential(initial_, cfg_.sweeps);
    if (!has_reference_) {
      reference_ = std::move(g);
      has_reference_ = true;
      return true;
    }
    return g.u == reference_.u;
  }

  // Every PE applies the same stencil to the same values in the same
  // order as the reference, so the gathered grid must match exactly.
  bool verify() const override {
    return has_reference_ && result_.u == reference_.u;
  }

  void corrupt() override { result_.at(1, 1) += 1.0; }

  std::uint64_t gemm_calls() const override { return 0; }

 private:
  JacobiConfig cfg_;
  JacobiGrid initial_, result_, reference_;
  bool has_reference_ = false;
};

// --- workloads -------------------------------------------------------------

struct Workload {
  std::string name;
  int pes = 0;
  bool mm = false;  ///< the MM program (else Jacobi)
  bool proc = false;
  std::size_t cargo_bytes = 0;  ///< payload of one hop
  double seq_share = 0.0;  ///< of the measuring loop, for the reference
  std::function<std::unique_ptr<Program>()> make_program;
};

std::vector<Workload> workloads() {
  return {
      {"mm-dense", kMmPes, true, false,
       static_cast<std::size_t>(kMmBlock) * kMmBlock * sizeof(double),
       kSeqShareMm, [] { return std::make_unique<MmProgram>(); }},
      {"jacobi-threaded", kJacobiPes, false, false,
       static_cast<std::size_t>(kJacobiCols) * sizeof(double), kSeqShareJacobi,
       [] { return std::make_unique<JacobiProgram>(kJacobiSweepsThreaded); }},
      {"jacobi-proc", kJacobiPes, false, true,
       static_cast<std::size_t>(kJacobiCols) * sizeof(double), kSeqShareJacobi,
       [] { return std::make_unique<JacobiProgram>(kJacobiSweepsProc); }},
  };
}

std::unique_ptr<Engine> make_engine(const Workload& w) {
  if (w.proc) return std::make_unique<ProcMachine>(w.pes);
  return std::make_unique<ThreadedMachine>(w.pes);
}

// --- run-wide tallies ------------------------------------------------------

struct Tally {
  long attempted = 0;
  long failed = 0;
};

/// Per-layer tallies of the workload's own solves, summed over the traced
/// solves and divided out at the end.
struct EngineTally {
  std::uint64_t hops = 0;
  double wall_s = 0.0;
  // threaded
  std::uint64_t actions = 0;
  // proc
  double parent_action_s = 0.0;
  double worker_busy_s = 0.0;
  double serialize_s = 0.0;
  double verify_s = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t hop_bytes = 0;
  int pes = 0;
};

void add_proc_stats(const ProcMachine& m, EngineTally* t) {
  for (int pe = 0; pe < m.pe_count(); ++pe) {
    const auto& s = m.worker_stats(pe);
    t->parent_action_s += m.action_seconds(pe);
    t->worker_busy_s += static_cast<double>(s.busy_ns) * 1e-9;
    t->serialize_s += static_cast<double>(s.serialize_ns) * 1e-9;
    t->verify_s += static_cast<double>(s.verify_ns) * 1e-9;
    t->frames += s.frames_seen;
    t->hop_bytes += s.hop_bytes_out;
  }
}

std::uint64_t threaded_actions(const navcpp::obs::Registry& reg, int pes) {
  const auto snap = reg.snapshot();
  std::uint64_t total = 0;
  for (int pe = 0; pe < pes; ++pe) {
    total += snap.counter_or("threaded.actions{" +
                             navcpp::obs::pe_label(pe) + "}");
  }
  return total;
}

/// 99th percentile of the threaded run-queue depth histogram, as the upper
/// bound of the bucket holding it.
double queue_depth_p99(navcpp::obs::Registry& reg) {
  auto& h = reg.histogram("threaded.queue_depth", "",
                          {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0});
  const auto counts = h.bucket_counts();
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  if (total == 0) return 0.0;
  const double want = 0.99 * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) >= want) {
      return i < h.bounds().size() ? h.bounds()[i] : 2.0 * h.bounds().back();
    }
  }
  return h.bounds().back();
}

/// An empty directory at `path` for a ProcMachine's flight-recorder rings
/// (the recorder's default is a temp dir outside the checkout).
std::string fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

// --- crash drill -----------------------------------------------------------

struct DrillResult {
  std::vector<double> recovery_ms;
  std::vector<double> replayed_frames;
};

/// Jacobi solves on a 3-PE ProcMachine with recovery on and one SIGKILL
/// at a fixed transmit count: exercises retention, respawn and replay.
DrillResult crash_drill(std::uint64_t seed, int solves,
                        const std::string& workdir, Spans* spans,
                        Tally* tally) {
  DrillResult out;
  JacobiProgram program(kDrillSweeps);
  program.generate(seed);
  program.sequential();
  for (int i = 0; i < solves; ++i) {
    auto drill = spans->span("drill.solve", "machine.proc", i);
    ++tally->attempted;
    try {
      ProcMachine::Options opt;
      opt.recovery.enabled = true;
      opt.recovery.max_respawns = 4;
      opt.flight_dir = fresh_dir(workdir + "/flight-drill");
      ProcMachine machine(kDrillPes, opt);
      navcpp::obs::Registry reg;
      machine.set_metrics(&reg);
      machine.schedule_kill_after_transmits(1, kDrillKillAt);
      program.solve(machine);
      const bool ok = program.verify() && machine.total_respawns() == 1;
      if (!ok) {
        ++tally->failed;
        continue;
      }
      std::uint64_t replayed =
          reg.snapshot().counter_or("proc.recovery.frames_resent");
      for (int pe = 0; pe < machine.pe_count(); ++pe) {
        replayed += machine.worker_stats(pe).hops_replayed;
      }
      out.recovery_ms.push_back(machine.last_recovery_seconds() * 1e3);
      out.replayed_frames.push_back(static_cast<double>(replayed));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "navbench: crash drill solve %d threw: %s\n", i,
                   e.what());
      ++tally->failed;
    }
  }
  return out;
}

// --- layer probes (traced run) ---------------------------------------------

/// Ping-pong between PE 0 and PE 1 carrying `bytes` of cargo per hop.
navcpp::navp::Mission pingpong(navcpp::navp::Ctx ctx, int hops,
                               std::size_t bytes) {
  for (int i = 0; i < hops; ++i) {
    co_await ctx.hop(1 - ctx.here(), bytes);
  }
}

/// Wall seconds per hop of one ping-pong run on `engine`.
double pingpong_s_per_hop(Engine& engine, int hops, std::size_t bytes,
                          std::uint64_t* hops_done) {
  navcpp::navp::Runtime rt(engine);
  const double t0 = now_s();
  rt.inject(0, "pingpong", pingpong, hops, bytes);
  rt.run();
  const double dt = now_s() - t0;
  if (hops_done != nullptr) *hops_done = rt.hop_count();
  return dt / static_cast<double>(std::max<std::uint64_t>(rt.hop_count(), 1));
}

/// Results of probed calls land here so the calls cannot be optimized out.
volatile std::uint64_t g_sink = 0;

/// Median of `reps` timings of `batch` calls of `fn`, per call.
template <class Fn>
double per_call_s(int reps, int batch, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    for (int i = 0; i < batch; ++i) fn();
    t.push_back((now_s() - t0) / batch);
  }
  return median(std::move(t));
}

struct ProbeResults {
  double gemm_s = 0.0;
  double cargo_save_s = 0.0;
  double cargo_restore_s = 0.0;
  double checksum_s = 0.0;
  double frame_roundtrip_s = 0.0;
  double threaded_hop_s = 0.0;
  double proc_hop_s = 0.0;
  double proc_trace_ratio = 0.0;
  double proc_spawn_s = 0.0;
  double mm_seq_s = 0.0;
  double jacobi_seq_s = 0.0;
  EngineTally threaded;  ///< 2-PE threaded ping-pong
  double threaded_qd_p99 = 0.0;
  EngineTally proc;  ///< 2-PE proc ping-pong
};

double probe_gemm(Spans* spans) {
  auto s = spans->span("probe.gemm_acc", "linalg");
  navcpp::linalg::RealBlock a(kMmBlock, kMmBlock), b(kMmBlock, kMmBlock),
      c(kMmBlock, kMmBlock);
  navcpp::support::Rng rng(7);
  for (auto& x : a.data) x = rng.uniform(-1.0, 1.0);
  for (auto& x : b.data) x = rng.uniform(-1.0, 1.0);
  return per_call_s(15, 4, [&] { RealStorage::gemm_acc(c, a, b); });
}

void probe_cargo(std::size_t bytes, Spans* spans, ProbeResults* r) {
  std::vector<double> payload(bytes / sizeof(double), 1.5);
  navcpp::navp::Cargo cargo;
  cargo.attach(&payload);
  const int batch = bytes > 4096 ? 20 : 2000;
  {
    auto s = spans->span("probe.cargo_save", "navp");
    r->cargo_save_s = per_call_s(15, batch, [&] {
      g_sink = g_sink + cargo.save().size();
    });
  }
  auto s = spans->span("probe.cargo_restore", "navp");
  const auto saved = cargo.save();
  const std::vector<std::byte> raw(saved.bytes().begin(), saved.bytes().end());
  r->cargo_restore_s = per_call_s(15, batch, [&] {
    navcpp::support::ByteBuffer buf(raw);
    cargo.restore(buf);
  });
}

void probe_checksum(std::size_t bytes, Spans* spans, ProbeResults* r) {
  auto s = spans->span("probe.wire_checksum", "net");
  std::vector<std::byte> data;
  navcpp::net::wire_fill_pattern(data, bytes, 3);
  r->checksum_s = per_call_s(15, bytes > 4096 ? 50 : 5000, [&] {
    g_sink = g_sink + navcpp::net::wire_checksum(data.data(), data.size(), 1);
  });
}

/// FrameConn send/next_frame round trip over a socketpair, echoed by a
/// second thread; the frame carries `bytes` of payload.
void probe_frame_roundtrip(std::size_t bytes, Spans* spans,
                           ProbeResults* r) {
  using navcpp::net::FrameConn;
  using navcpp::net::WireFrame;
  using navcpp::net::WireType;
  auto s = spans->span("probe.frame_roundtrip", "net");
  int fds[2] = {-1, -1};
  navcpp::net::wire_socketpair(fds);
  FrameConn near(fds[0]);
  auto recv = [](FrameConn& c, WireFrame* f) {
    while (!c.next_frame(f)) {
      if (!c.read_some()) return false;
    }
    return true;
  };
  std::thread echo([fd = fds[1], &recv] {
    FrameConn far(fd);
    WireFrame f;
    while (recv(far, &f) && f.type != WireType::kShutdown) {
      if (!far.send_frame(f)) break;
    }
    far.close();
  });
  WireFrame frame;
  frame.type = WireType::kHop;
  navcpp::net::wire_fill_pattern(frame.payload, bytes, 5);
  WireFrame back;
  bool ok = true;
  r->frame_roundtrip_s = per_call_s(15, bytes > 4096 ? 20 : 500, [&] {
    ok = ok && near.send_frame(frame) && recv(near, &back);
  });
  WireFrame stop;
  stop.type = WireType::kShutdown;
  near.send_frame(stop);
  echo.join();
  near.close();
  if (!ok) throw std::runtime_error("FrameConn round trip lost its peer");
}

void probe_threaded_hop(std::size_t bytes, Spans* spans, ProbeResults* r) {
  auto s = spans->span("probe.threaded_pingpong", "navp");
  ThreadedMachine m(2);
  navcpp::obs::Registry reg;
  m.set_metrics(&reg);
  std::vector<double> t;
  for (int rep = 0; rep < 9; ++rep) {
    std::uint64_t hops = 0;
    const double per_hop = pingpong_s_per_hop(m, 20000, bytes, &hops);
    t.push_back(per_hop);
    r->threaded.hops += hops;
  }
  r->threaded_hop_s = median(std::move(t));
  r->threaded.actions = threaded_actions(reg, 2);
  r->threaded_qd_p99 = queue_depth_p99(reg);
  r->threaded.pes = 2;
}

void probe_proc_hop(std::size_t bytes, const std::string& workdir,
                    Spans* spans, ProbeResults* r) {
  auto s = spans->span("probe.proc_pingpong", "machine.proc");
  const int hops = bytes > 4096 ? 200 : 2000;
  ProcMachine plain(2);
  ProcMachine::Options topt;
  topt.trace = true;
  topt.flight_dir = fresh_dir(workdir + "/flight-probe");
  ProcMachine traced(2, topt);
  std::vector<double> t_plain, t_traced;
  for (int rep = 0; rep < 7; ++rep) {
    std::uint64_t done = 0;
    const double per_hop = pingpong_s_per_hop(plain, hops, bytes, &done);
    t_plain.push_back(per_hop);
    r->proc.hops += done;
    r->proc.wall_s += per_hop * static_cast<double>(done);
    add_proc_stats(plain, &r->proc);
    t_traced.push_back(pingpong_s_per_hop(traced, hops, bytes, nullptr));
  }
  r->proc_hop_s = median(t_plain);
  r->proc_trace_ratio = ratio(median(t_traced), r->proc_hop_s);
  r->proc.pes = 2;
}

void probe_proc_spawn(Spans* spans, ProbeResults* r) {
  std::vector<double> t;
  for (int rep = 0; rep < 5; ++rep) {
    auto s = spans->span("probe.proc_spawn", "machine.proc");
    const double t0 = now_s();
    auto m = std::make_unique<ProcMachine>(kJacobiPes);
    t.push_back(now_s() - t0);
  }
  r->proc_spawn_s = median(std::move(t));
}

ProbeResults run_probes(const Workload& w, std::uint64_t seed,
                        const std::string& workdir, Spans* spans) {
  ProbeResults r;
  r.gemm_s = probe_gemm(spans);
  probe_cargo(w.cargo_bytes, spans, &r);
  probe_checksum(w.cargo_bytes, spans, &r);
  // On the wire a hop's payload is its cargo plus the runtime's hop state.
  const std::size_t frame_bytes =
      w.cargo_bytes + navcpp::perfmodel::Testbed{}.hop_state_bytes;
  probe_frame_roundtrip(frame_bytes, spans, &r);
  probe_threaded_hop(w.cargo_bytes, spans, &r);
  probe_proc_hop(w.cargo_bytes, workdir, spans, &r);
  probe_proc_spawn(spans, &r);
  // The workload's own sequential reference covers its program; the other
  // program's reference is timed here.
  if (!w.mm) {
    auto s = spans->span("probe.mm_sequential", "mm");
    MmProgram mm;
    mm.generate(seed);
    const double t0 = now_s();
    mm.sequential();
    r.mm_seq_s = now_s() - t0;
  } else {
    auto s = spans->span("probe.jacobi_sequential", "apps");
    JacobiProgram jac(kJacobiSweepsThreaded);
    jac.generate(seed);
    std::vector<double> t;
    for (int rep = 0; rep < 5; ++rep) {
      const double t0 = now_s();
      jac.sequential();
      t.push_back(now_s() - t0);
    }
    r.jacobi_seq_s = median(std::move(t));
  }
  return r;
}

// --- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Peak resident set of this process plus the largest reaped child (the
/// proc workers), in MiB.  The process's own peak comes from VmHWM: the
/// getrusage figure also counts whatever launched us, because Linux keeps
/// the pre-exec high-water mark across exec.
double peak_rss_mb() {
  rusage self{}, children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  long self_kb = self.ru_maxrss;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      self_kb = std::strtol(line.c_str() + 6, nullptr, 10);
      break;
    }
  }
  return static_cast<double>(self_kb + children.ru_maxrss) / 1024.0;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string workdir = ".";
  long corrupt_every = 0;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a->seconds > 0.0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1" ? 1 : 0;
    } else if (key == "--workdir") {
      a->workdir = val;
    } else if (key == "--corrupt-every") {
      a->corrupt_every = std::strtol(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0' || a->corrupt_every < 0) {
        return false;
      }
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0 &&
         a->trace >= 0;
}

/// Everything the measuring loop collects.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> solve_s;  ///< timed solves (the traced ones if traced)
  std::vector<double> solve_untraced_s;  ///< traced run only
  std::vector<double> seq_s;
  std::uint64_t hops_per_solve = 0;
  EngineTally own;  ///< the traced solves' engine counters
};

/// Set-up repeats, then solves and interleaved sequential references for
/// `args.seconds`.  Counts attempts and failures into `tally`.
Samples measure(const Args& args, const Workload& w, Program* program,
                Spans* spans, navcpp::obs::Registry* registry, Tally* tally) {
  const bool traced = args.trace == 1;
  Samples out;
  out.own.pes = w.pes;

  // Set-up: input generation plus engine construction.  It is repeated
  // before every solve, so a run holds as many set-up samples as solves
  // and they spread over the whole run.
  std::unique_ptr<Engine> engine;
  auto set_up = [&](long id) {
    engine.reset();
    auto s = spans->span("setup", "bench", id);
    const double t0 = now_s();
    {
      auto g = spans->span("setup.inputs", "bench", id);
      program->generate(args.seed);
    }
    {
      auto e = spans->span("setup.engine",
                           w.proc ? "machine.proc" : "machine.threaded", id);
      engine = make_engine(w);
    }
    out.setup_s.push_back(now_s() - t0);
  };
  set_up(0);

  bool seq_ok = true;
  double seq_total = 0.0, solve_total = 0.0;
  auto run_sequential = [&](long idx) {
    auto s = spans->span("sequential", w.mm ? "mm" : "apps", idx);
    const double t0 = now_s();
    seq_ok = program->sequential() && seq_ok;
    const double dt = now_s() - t0;
    out.seq_s.push_back(dt);
    seq_total += dt;
  };
  run_sequential(-1);  // stores the reference

  // Past the deadline the loop only continues to reach kMinSolves, and
  // never beyond a hard stop (a host too slow for that, or a program that
  // keeps failing, must still end the run).
  const double deadline = now_s() + args.seconds;
  const double hard_stop = deadline + 0.1 * args.seconds;
  long index = 0;
  while (now_s() < deadline ||
         (out.solve_s.size() < kMinSolves && now_s() < hard_stop)) {
    if (seq_total < w.seq_share * (seq_total + solve_total)) {
      run_sequential(index);
      continue;
    }
    // A fresh set-up before every solve, outside the solve timing.  Besides
    // giving set-up many samples, this re-places the proc workers: they
    // keep their CPU placement for the engine's lifetime, and a single
    // placement per run would make the whole run fast or slow.
    if (index > 0) set_up(index);
    // The traced run alternates traced and untraced solves so the ratio
    // of the two medians is the tracing overhead.  Threaded engine
    // counters are attached for the traced solves only.
    const bool span_this = traced && index % 2 == 0;
    spans->set_enabled(span_this);
    if (traced && !w.proc) engine->set_metrics(span_this ? registry : nullptr);
    ++tally->attempted;
    double dt = 0.0;
    std::uint64_t hops = 0;
    bool ok = false;
    try {
      auto s = spans->span("solve", "navp", index);
      const double t0 = now_s();
      hops = program->solve(*engine);
      dt = now_s() - t0;
      if (args.corrupt_every > 0 && (index + 1) % args.corrupt_every == 0) {
        program->corrupt();
      }
      auto v = spans->span("verify", "bench", index);
      ok = program->verify();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "navbench: solve %ld threw: %s\n", index, e.what());
      engine.reset();
      engine = make_engine(w);
    }
    spans->set_enabled(traced);
    ++index;
    if (!ok) {
      ++tally->failed;
      continue;
    }
    solve_total += dt;
    out.hops_per_solve = hops;
    if (traced && !span_this) {
      out.solve_untraced_s.push_back(dt);
      continue;
    }
    out.solve_s.push_back(dt);
    if (traced) {
      out.own.hops += hops;
      out.own.wall_s += dt;
      if (w.proc) add_proc_stats(static_cast<ProcMachine&>(*engine), &out.own);
    }
  }
  if (!seq_ok) ++tally->failed;
  if (traced && !w.proc) out.own.actions = threaded_actions(*registry, w.pes);
  return out;
}

std::vector<Metric> end_to_end_metrics(const Workload& w, const Samples& m,
                                       const DrillResult& drill,
                                       const Tally& tally) {
  const unsigned cores = std::thread::hardware_concurrency();
  const double solve_med = median(m.solve_s);
  const double seq_med = median(m.seq_s);
  const Tail tail = tail_of(m.solve_s);
  std::printf("host: nproc=%u pes=%d engine=%s drill_pes=%d\n", cores, w.pes,
              w.proc ? "proc" : "threaded", kDrillPes);
  std::printf("solve_s_tail: p%.1f of %zu solves\n", tail.percentile,
              tail.samples);
  std::printf("speedup: %s (sequential median %.6g s, min %.6g s, max %.6g s "
              "over %zu runs)\n",
              cores >= static_cast<unsigned>(w.pes)
                  ? "applicable"
                  : "not applicable: fewer cores than PEs",
              seq_med, *std::min_element(m.seq_s.begin(), m.seq_s.end()),
              *std::max_element(m.seq_s.begin(), m.seq_s.end()),
              m.seq_s.size());
  std::printf("failed_ratio: %.6g (%ld of %ld)\n",
              static_cast<double>(tally.failed) /
                  static_cast<double>(std::max(tally.attempted, 1L)),
              tally.failed, tally.attempted);
  return {
      {"solve_s", solve_med, "s"},
      {"solve_s_tail", tail.value, "s"},
      {"setup_s", median(m.setup_s), "s"},
      {"speedup", ratio(seq_med, solve_med), "x"},
      {"recovery_ms", median(drill.recovery_ms), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

std::vector<Metric> layer_metrics(const Workload& w, const Program& program,
                                  const Samples& m, const DrillResult& drill,
                                  const ProbeResults& probe,
                                  navcpp::obs::Registry& registry) {
  const double solve_med = median(m.solve_s);
  const double seq_med = median(m.seq_s);
  // Engine-layer numbers come from the workload's own solves when it runs
  // on that engine, otherwise from the 2-PE ping-pong probe at the
  // workload's cargo size.
  const EngineTally& thr = w.proc ? probe.threaded : m.own;
  const EngineTally& prc = w.proc ? m.own : probe.proc;
  const double qd_p99 =
      w.proc ? probe.threaded_qd_p99 : queue_depth_p99(registry);
  auto per_hop = [](double total, const EngineTally& t) {
    return ratio(total, static_cast<double>(t.hops));
  };
  auto per_wall = [](double total, const EngineTally& t) {
    return ratio(total, t.wall_s);
  };
  const double pes = static_cast<double>(w.pes);
  const double hops = static_cast<double>(m.hops_per_solve);
  const double gemm_flops =
      navcpp::linalg::gemm_flops(kMmBlock, kMmBlock, kMmBlock);
  // A, B and C read, C written: four 128x128 blocks of doubles.
  const double gemm_bytes = 4.0 * kMmBlock * kMmBlock * sizeof(double);
  const double gemm_path_s =
      static_cast<double>(program.gemm_calls()) * probe.gemm_s / pes;
  const double compute_path_s = seq_med / pes;
  // One hop on this engine at this cargo size, as the ping-pong measures
  // it; the workload's hops are spread over its PEs.
  const double hop_cost_s = w.proc ? probe.proc_hop_s : probe.threaded_hop_s;
  const double hop_path_s = hops * hop_cost_s / pes;

  std::printf("host: nproc=%u pes=%d engine=%s\n",
              std::thread::hardware_concurrency(), w.pes,
              w.proc ? "proc" : "threaded");
  std::printf("traced solves %zu, untraced solves %zu, sequential runs %zu\n",
              m.solve_s.size(), m.solve_untraced_s.size(), m.seq_s.size());
  std::printf("engine metrics: machine.%s.* from this workload's solves, "
              "machine.%s.* from the 2-PE ping-pong\n",
              w.proc ? "proc" : "threaded", w.proc ? "threaded" : "proc");
  std::printf("cargo_restore_ns %.6g\n", probe.cargo_restore_s * 1e9);
  return {
      {"linalg.gemm_gflops", ratio(gemm_flops, probe.gemm_s) / 1e9,
       "GFLOP/s"},
      {"linalg.gemm_ns_per_call", probe.gemm_s * 1e9, "ns"},
      {"linalg.gemm_share", ratio(gemm_path_s, solve_med), "ratio"},
      {"linalg.flop_per_byte", gemm_flops / gemm_bytes, "flop/B"},
      {"mm.seq_s", w.mm ? seq_med : probe.mm_seq_s, "s"},
      {"navp.hops_per_solve", hops, "count"},
      {"navp.us_per_hop", ratio(solve_med, hops) * 1e6, "us"},
      {"navp.pingpong_us", probe.threaded_hop_s * 1e6, "us"},
      {"navp.cargo_save_ns", probe.cargo_save_s * 1e9, "ns"},
      {"machine.threaded.actions_per_hop",
       per_hop(static_cast<double>(thr.actions), thr), "ratio"},
      {"machine.threaded.queue_depth_p99", qd_p99, "count"},
      {"apps.jacobi_seq_s", w.mm ? probe.jacobi_seq_s : seq_med, "s"},
      {"apps.compute_share", ratio(compute_path_s, solve_med), "ratio"},
      {"machine.proc.us_per_hop", probe.proc_hop_s * 1e6, "us"},
      {"machine.proc.parent_busy_ratio", per_wall(prc.parent_action_s, prc),
       "ratio"},
      {"machine.proc.worker_busy_ratio",
       ratio(per_wall(prc.worker_busy_s, prc), prc.pes), "ratio"},
      {"machine.proc.serialize_ns_per_hop", per_hop(prc.serialize_s, prc) * 1e9,
       "ns"},
      {"machine.proc.verify_ns_per_hop", per_hop(prc.verify_s, prc) * 1e9,
       "ns"},
      {"machine.proc.frames_per_hop",
       per_hop(static_cast<double>(prc.frames), prc), "ratio"},
      {"machine.proc.bytes_per_hop",
       per_hop(static_cast<double>(prc.hop_bytes), prc), "B"},
      {"net.frame_roundtrip_us", probe.frame_roundtrip_s * 1e6, "us"},
      {"net.checksum_ns", probe.checksum_s * 1e9, "ns"},
      {"machine.proc.spawn_s", probe.proc_spawn_s, "s"},
      {"machine.proc.replayed_frames", median(drill.replayed_frames), "count"},
      {"obs.proc_trace_overhead_ratio", probe.proc_trace_ratio, "ratio"},
      {"trace_overhead_ratio", ratio(solve_med, median(m.solve_untraced_s)),
       "ratio"},
      {"accounted_share",
       ratio(std::max(gemm_path_s, compute_path_s) + hop_path_s, solve_med),
       "ratio"},
  };
}

int run(const Args& args, const Workload& w) {
  const bool traced = args.trace == 1;
  Spans spans;
  spans.set_enabled(traced);
  Tally tally;

  // Crash drill first, while this process is small: forked workers inherit
  // the parent's resident set until they exec, and peak_rss_mb counts them.
  const DrillResult drill = crash_drill(
      args.seed, traced ? kDrillSolvesTraced : kDrillSolvesUntraced,
      args.workdir, &spans, &tally);

  auto program = w.make_program();
  navcpp::obs::Registry registry;
  const Samples samples =
      measure(args, w, program.get(), &spans, &registry, &tally);
  if (!traced) {
    print_result(tally, end_to_end_metrics(w, samples, drill, tally));
    return 0;
  }
  const ProbeResults probe = run_probes(w, args.seed, args.workdir, &spans);
  const std::vector<Metric> metrics =
      layer_metrics(w, *program, samples, drill, probe, registry);
  const std::string trace_path = args.workdir + "/trace-" + w.name + "-seed" +
                                 std::to_string(args.seed) + ".json";
  const std::string trace_error = spans.write_chrome(trace_path);
  if (!trace_error.empty()) {
    std::fprintf(stderr, "navbench: %s\n", trace_error.c_str());
    return 1;
  }
  std::printf("trace: %s\n", trace_path.c_str());
  print_result(tally, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: navbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR] [--corrupt-every K]\n");
    return 2;
  }
  for (const Workload& w : workloads()) {
    if (w.name != args.workload) continue;
    try {
      return run(args, w);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "navbench: %s\n", e.what());
      return 1;
    }
  }
  std::fprintf(stderr, "navbench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
