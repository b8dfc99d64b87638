// Benchmark worker: drives one workload of the dual-cube simulator through
// its public API as a closed loop (one caller, the shared pool's workers),
// and reports every operation on stdout as one JSON line.
//
// One operation (op) is one complete simulated algorithm run. Its inputs are
// generated from (--seed, op index) before the clock starts; its result and
// Counters are checked after the clock stops. A failed check is reported
// with its cause and the worker exits, so run.py can discard
// the process — a racing pool may still be writing into freed memory — and
// respawn a fresh one. Crashes and hangs are detected by run.py.
//
// Usage (normally started by run.py):
//   perfbench_worker --workload W --seed N --seconds S [--trace 0|1]
//       [--probes 0|1] [--setup-reps R] [--setup-every S] [--warmup K]
//       [--op-base I] [--inject KIND@OP]
//       [--store-dir DIR] [--trace-out FILE]
//
// Output lines, each one JSON object tagged by "ev":
//   env     build and machine stamp
//   setup   one cold set-up (topology, adjacency, engine, first op); the
//           first --setup-reps before the loop, then one every
//           --setup-every seconds of loop
//   warmup  one checked, untimed op after set-up
//   probe_op, tick, probes
//           (--trace 1 --probes 1) per-layer probes: progress, then results
//   phase   start of the measured loop
//   op      one measured op: status, host wall ns, process CPU ns, host ns
//           of the reference kernel timed right after it; with
//           --trace 1 also the op's span self time, pool steals, schedule
//           cache deltas, Counters and arena bytes
//   end     clean end of the loop: the process's peak resident set
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "core/dual_prefix.hpp"
#include "core/dual_sort.hpp"
#include "core/formulas.hpp"
#include "core/ops.hpp"
#include "core/sequential.hpp"
#include "core/sharded_prefix.hpp"
#include "sim/machine.hpp"
#include "sim/oblivious.hpp"
#include "sim/schedule.hpp"
#include "sim/schedule_store.hpp"
#include "sim/shard.hpp"
#include "sim/simd.hpp"
#include "sim/trace.hpp"
#include "support/thread_pool.hpp"
#include "topology/dual_cube.hpp"
#include "topology/recursive_dual_cube.hpp"

namespace {

using dc::u64;
using dc::net::NodeId;
using dc::sim::Counters;

// ---- clocks -----------------------------------------------------------

u64 wall_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

u64 cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<u64>(ts.tv_sec) * 1000000000ull +
         static_cast<u64>(ts.tv_nsec);
}

/// Peak resident set of this process in KiB (VmHWM), 0 if unknown. Unlike
/// getrusage's ru_maxrss it starts afresh at exec, so the size of the
/// process that started the worker does not leak into it.
u64 peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// ---- inputs -----------------------------------------------------------

/// Stateless input generator: element i of op `op_seed`.
u64 input_at(u64 op_seed, u64 i) {
  u64 z = op_seed + (i + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

u64 op_seed_of(u64 seed, u64 op) { return input_at(seed, op) | 1; }

// ---- reference kernel -------------------------------------------------

/// Fixed host work owned by the benchmark, timed right after every measured
/// op: a bitonic sort of 2,048 keys written as table-driven gather passes
/// and branchy compare passes, the same shape of work as one simulated
/// D_sort. The library never runs it, so no library change moves its time,
/// while a shared host's speed changes move it and the op alike; op time
/// over reference time (run.py's op_rel) cancels those changes.
class Reference {
 public:
  static constexpr std::size_t kN = 2048;

  Reference() {
    for (std::size_t k = 2; k <= kN; k <<= 1) {
      for (std::size_t j = k >> 1; j > 0; j >>= 1) {
        for (std::size_t i = 0; i < kN; ++i) {
          partner_.push_back(static_cast<std::uint32_t>(i ^ j));
          keep_min_.push_back(((i & k) == 0) == ((i & j) == 0));
        }
      }
    }
  }

  /// Host ns of one warm sort. An untimed sort first brings the tables back
  /// into cache, so the op timed before cannot change what this one costs.
  u64 warm_ns(u64 seed) {
    bool sorted = run(seed);
    const u64 t0 = wall_ns();
    sorted = run(seed + 1) && sorted;
    const u64 t1 = wall_ns();
    if (!sorted) throw std::runtime_error("reference kernel did not sort");
    return t1 - t0;
  }

 private:
  /// Sorts keys generated from `seed`; the caller checks the result, so
  /// the work cannot be dropped.
  bool run(u64 seed) {
    for (std::size_t i = 0; i < kN; ++i) keys_[i] = input_at(seed, i);
    for (std::size_t s = 0; s < partner_.size(); s += kN) {
      const std::uint32_t* p = &partner_[s];
      const unsigned char* m = &keep_min_[s];
      for (std::size_t i = 0; i < kN; ++i) in_[i] = keys_[p[i]];
      for (std::size_t i = 0; i < kN; ++i) {
        if ((in_[i] < keys_[i]) == (m[i] != 0)) keys_[i] = in_[i];
      }
    }
    return std::is_sorted(keys_.begin(), keys_.end());
  }

  std::vector<std::uint32_t> partner_;
  std::vector<unsigned char> keep_min_;
  std::vector<u64> keys_ = std::vector<u64>(kN);
  std::vector<u64> in_ = std::vector<u64>(kN);
};

// ---- spans ------------------------------------------------------------

/// In-memory span log, recorded from the benchmark's own calls into each
/// layer; written out when the run ends. Off unless `on`.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;
    u64 op;
    u64 begin;
    u64 end;
  };

  bool on = false;
  u64 op = 0;

  int open(const char* name) {
    if (!on) return -1;
    spans_.push_back({name, cur_, op, wall_ns(), 0});
    cur_ = static_cast<int>(spans_.size() - 1);
    return cur_;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = wall_ns();
    cur_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  std::size_t size() const { return spans_.size(); }
  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Self time (ns) of the spans named `name` among spans [first, end):
  /// their durations minus the time covered by their direct children.
  double self_ns(const char* name, std::size_t first) const {
    double total = 0;
    for (std::size_t i = first; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double d = static_cast<double>(s.end - s.begin);
      if (std::strcmp(s.name, name) == 0) total += d;
      if (s.parent >= 0 && static_cast<std::size_t>(s.parent) >= first &&
          std::strcmp(spans_[static_cast<std::size_t>(s.parent)].name, name) ==
              0)
        total -= d;
    }
    return total;
  }

  void write(const std::string& path) const {
    std::ofstream f(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      f << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"name\":\"" << s.name << "\",\"begin_ns\":" << s.begin
        << ",\"end_ns\":" << s.end << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
  int cur_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
  ~ScopedSpan() { t_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ---- checks -----------------------------------------------------------

enum class Status { kOk, kWrongResult, kWrongCounters, kException };

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kWrongResult:
      return "wrong_result";
    case Status::kWrongCounters:
      return "wrong_counters";
    default:
      return "exception";
  }
}

/// Self-test fault to inject at one op: corrupt the result, disturb the
/// sort order, bump a counter, sleep past the deadline or abort.
enum class Inject { kNone, kCorruptPrefix, kUnsorted, kCounterOff, kSleep,
                    kAbort };

/// Counters of a healthy op: comm/comp from core/formulas.hpp, messages and
/// ops from the closed forms documented per workload.
struct Expected {
  Counters total;
  Counters virt;  // sharded engine only: the analytically booked part
};

void print_counters(const char* what, const Counters& c) {
  std::fprintf(stderr,
               "%s: comm_cycles=%" PRIu64 " comp_steps=%" PRIu64
               " messages=%" PRIu64 " ops=%" PRIu64 " lost=%" PRIu64
               " rerouted=%" PRIu64 " fault_cycles=%" PRIu64 "\n",
               what, c.comm_cycles, c.comp_steps, c.messages, c.ops,
               c.messages_lost, c.messages_rerouted, c.fault_cycles);
}

Status check_counters(Counters got, const Expected& want, bool inject_off,
                      const Counters* virt_got) {
  if (inject_off) ++got.comm_cycles;
  const bool total_ok = got == want.total;
  const bool virt_ok = !virt_got || *virt_got == want.virt;
  if (total_ok && virt_ok) return Status::kOk;
  print_counters("counters got ", got);
  print_counters("counters want", want.total);
  if (virt_got) {
    print_counters("virtual got  ", *virt_got);
    print_counters("virtual want ", want.virt);
  }
  return Status::kWrongCounters;
}

// ---- workloads --------------------------------------------------------

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  virtual const char* algorithm_span() const = 0;
  virtual unsigned order() const = 0;
  /// Set-up: topology, CSR adjacency and (for the sharded engine) the
  /// engine. Everything a first op needs except a recorded schedule.
  virtual void build() = 0;
  virtual void release() = 0;
  /// Off the clock: generate op inputs.
  virtual void prepare(u64 op_seed) = 0;
  /// The timed op.
  virtual void run(Tracer& tr) = 0;
  /// Off the clock: compare result and Counters to the references.
  virtual Status check(Inject inject) = 0;
  virtual Counters counters() const = 0;
  virtual std::size_t arena_bytes() const = 0;
  /// Attach (or detach, nullptr) a trace recorder for the next ops.
  virtual void set_recorder(dc::sim::TraceRecorder* rec) = 0;
  /// Topology of one simulated machine of this workload, and a perfect
  /// matching over it (for the gather probe).
  virtual const dc::net::Topology& machine_topology() const = 0;
  virtual NodeId matching(NodeId u) const = 0;
};

/// prefix_flat_d8: core::dual_prefix with Plus<u64> on a flat DualCube(8),
/// a fresh Machine per op.
class FlatPrefix final : public Workload {
 public:
  explicit FlatPrefix(unsigned n) : n_(n) {
    const u64 N = u64{1} << (2 * n - 1);
    want_.total.comm_cycles = dc::core::formulas::dual_prefix_comm_impl(n);
    want_.total.comp_steps = dc::core::formulas::dual_prefix_comp(n);
    // Every node sends in every cycle; each in-cluster step applies 2 ops
    // on half the nodes and 1 on the rest, the fold 1 per node and the
    // class-1 prepend 1 per class-1 node.
    want_.total.messages = 2 * u64{n} * N;
    want_.total.ops = 3 * (u64{n} - 1) * N + N + N / 2;
  }
  const char* algorithm_span() const override { return "core.dual_prefix"; }
  unsigned order() const override { return n_; }
  void build() override {
    d_.emplace(n_);
    (void)d_->flat_adjacency();
  }
  void release() override {
    m_.reset();
    d_.reset();
  }
  void prepare(u64 op_seed) override {
    data_.resize(d_->node_count());
    for (u64 i = 0; i < data_.size(); ++i) data_[i] = input_at(op_seed, i);
  }
  void run(Tracer& tr) override {
    {
      ScopedSpan s(tr, "sim.machine.construct");
      m_.emplace(*d_);
      if (rec_) m_->set_trace(rec_, "measured");
    }
    {
      ScopedSpan s(tr, "core.dual_prefix");
      out_ = dc::core::dual_prefix(*m_, *d_, plus_, data_);
    }
    counters_ = m_->counters();
    arena_ = m_->comm_pool_resident_bytes();
    {
      ScopedSpan s(tr, "sim.machine.destroy");
      m_.reset();
    }
  }
  Status check(Inject inject) override {
    if (inject == Inject::kCorruptPrefix && !out_.empty())
      out_[out_.size() / 2] ^= 1;
    if (out_ != dc::core::seq_inclusive_scan(plus_, data_))
      return Status::kWrongResult;
    return check_counters(counters_, want_, inject == Inject::kCounterOff,
                          nullptr);
  }
  Counters counters() const override { return counters_; }
  std::size_t arena_bytes() const override { return arena_; }
  void set_recorder(dc::sim::TraceRecorder* rec) override { rec_ = rec; }
  const dc::net::Topology& machine_topology() const override { return *d_; }
  NodeId matching(NodeId u) const override { return d_->cross_neighbor(u); }

 private:
  unsigned n_;
  Expected want_;
  dc::core::Plus<u64> plus_;
  std::optional<dc::net::DualCube> d_;
  std::optional<dc::sim::Machine> m_;
  std::vector<u64> data_, out_;
  Counters counters_;
  std::size_t arena_ = 0;
  dc::sim::TraceRecorder* rec_ = nullptr;
};

/// sort_d6: core::dual_sort on RecursiveDualCube(6), uniform keys per op,
/// a fresh Machine per op.
class Sort final : public Workload {
 public:
  explicit Sort(unsigned n) : n_(n) {
    const u64 N = u64{1} << (2 * n - 1);
    want_.total.comm_cycles = dc::core::formulas::dual_sort_comm_exact(n);
    want_.total.comp_steps = dc::core::formulas::dual_sort_comp_exact(n);
    // Every compare-exchange step is one compare per node.
    want_.total.ops = want_.total.comp_steps * N;
    want_.total.messages = sort_messages(n, N);
  }
  const char* algorithm_span() const override { return "core.dual_sort"; }
  unsigned order() const override { return n_; }
  void build() override {
    r_.emplace(n_);
    (void)r_->flat_adjacency();
  }
  void release() override {
    m_.reset();
    r_.reset();
  }
  void prepare(u64 op_seed) override {
    input_.resize(r_->node_count());
    for (u64 i = 0; i < input_.size(); ++i) input_[i] = input_at(op_seed, i);
  }
  void run(Tracer& tr) override {
    {
      ScopedSpan s(tr, "bench.input");
      keys_ = input_;
    }
    {
      ScopedSpan s(tr, "sim.machine.construct");
      m_.emplace(*r_);
      if (rec_) m_->set_trace(rec_, "measured");
    }
    {
      ScopedSpan s(tr, "core.dual_sort");
      dc::core::dual_sort(*m_, *r_, keys_);
    }
    counters_ = m_->counters();
    arena_ = m_->comm_pool_resident_bytes();
    {
      ScopedSpan s(tr, "sim.machine.destroy");
      m_.reset();
    }
  }
  Status check(Inject inject) override {
    if (inject == Inject::kUnsorted && keys_.size() > 1)
      std::swap(keys_.front(), keys_.back());
    // Sorted and a permutation of the input: equal to the input sorted.
    std::vector<u64> want = input_;
    std::sort(want.begin(), want.end());
    if (keys_ != want) return Status::kWrongResult;
    return check_counters(counters_, want_, inject == Inject::kCounterOff,
                          nullptr);
  }
  Counters counters() const override { return counters_; }
  std::size_t arena_bytes() const override { return arena_; }
  void set_recorder(dc::sim::TraceRecorder* rec) override { rec_ = rec; }
  const dc::net::Topology& machine_topology() const override { return *r_; }
  NodeId matching(NodeId u) const override { return r_->neighbor(u, 0); }

 private:
  static u64 sort_messages(unsigned n, u64 N) {
    // D_sort's k-th stage runs dimensions 2k-2..0 (merge) and, for k >= 2,
    // dimensions 2k-3..0 first (half merge). Dimension 0 is a direct
    // exchange (1 cycle, N messages); every other dimension is relayed in
    // 3 cycles that each move N/2 messages.
    u64 msgs = 0;
    for (unsigned k = 1; k <= n; ++k) {
      const unsigned dims = (k >= 2 ? 2 * k - 2 : 0) + (2 * k - 1);
      const unsigned direct = (k >= 2 ? 1 : 0) + 1;
      msgs += u64{direct} * N + u64{dims - direct} * 3 * (N / 2);
    }
    return msgs;
  }

  unsigned n_;
  Expected want_;
  std::optional<dc::net::RecursiveDualCube> r_;
  std::optional<dc::sim::Machine> m_;
  std::vector<u64> input_, keys_;
  Counters counters_;
  std::size_t arena_ = 0;
  dc::sim::TraceRecorder* rec_ = nullptr;
};

/// prefix_sharded_d11: core::sharded_dual_prefix with Plus<u64> on one
/// reused ShardEngine(DualCube(11), 4 shards, no budget); stateless input
/// generator, streamed sink.
class ShardedPrefix final : public Workload {
 public:
  ShardedPrefix(unsigned n, unsigned shards) : n_(n), shards_(shards) {
    const u64 N = u64{1} << (2 * n - 1);
    const u64 w = n - 1;
    want_.total.comm_cycles = dc::core::formulas::dual_prefix_comm_impl(n);
    want_.total.comp_steps = dc::core::formulas::dual_prefix_comp(n);
    want_.total.messages = 2 * u64{n} * N;
    want_.total.ops = 3 * (u64{n} - 1) * N + N + N / 2;
    // Steps 2-3 and the cross-edge return are booked, not executed.
    want_.virt.comm_cycles = w + 2;
    want_.virt.messages = (w + 2) * N;
    want_.virt.comp_steps = w;
    want_.virt.ops = w * (N / 2) * 3;
  }
  const char* algorithm_span() const override {
    return "core.sharded_dual_prefix";
  }
  unsigned order() const override { return n_; }
  void build() override {
    d_.emplace(n_);
    eng_.emplace(*d_, shards_, /*mem_budget_bytes=*/0);
    (void)eng_->shard_topology().flat_adjacency();
    out_.assign(d_->node_count(), 0);
  }
  void release() override {
    eng_.reset();
    d_.reset();
  }
  void prepare(u64 op_seed) override { op_seed_ = op_seed; }
  void run(Tracer& tr) override {
    eng_->reset_counters();
    next_base_ = 0;
    tiled_ = true;
    {
      ScopedSpan s(tr, "core.sharded_dual_prefix");
      const u64 seed = op_seed_;
      dc::core::sharded_dual_prefix(
          *eng_, plus_, [seed](u64 i) { return input_at(seed, i); },
          [&](u64 base, const u64* values, std::size_t count) {
            ScopedSpan sink(tr, "bench.sink");
            if (base != next_base_ || base + count > out_.size()) {
              tiled_ = false;
              return;
            }
            std::copy(values, values + count,
                      out_.begin() + static_cast<std::ptrdiff_t>(base));
            next_base_ = base + count;
          });
    }
    counters_ = eng_->counters();
    virt_ = eng_->virtual_counters();
    arena_ = 0;
    for (unsigned k = 0; k < eng_->shard_count(); ++k)
      arena_ += eng_->machine(k).comm_pool_resident_bytes();
  }
  Status check(Inject inject) override {
    if (inject == Inject::kCorruptPrefix) out_[out_.size() / 2] ^= 1;
    if (!tiled_ || next_base_ != out_.size()) return Status::kWrongResult;
    u64 acc = 0;
    for (u64 i = 0; i < out_.size(); ++i) {
      acc += input_at(op_seed_, i);
      if (out_[i] != acc) return Status::kWrongResult;
    }
    return check_counters(counters_, want_, inject == Inject::kCounterOff,
                          &virt_);
  }
  Counters counters() const override { return counters_; }
  std::size_t arena_bytes() const override { return arena_; }
  void set_recorder(dc::sim::TraceRecorder* rec) override {
    eng_->set_trace(rec);
  }
  const dc::net::Topology& machine_topology() const override {
    return eng_->shard_topology();
  }
  NodeId matching(NodeId u) const override { return u ^ 1; }

 private:
  unsigned n_, shards_;
  Expected want_;
  dc::core::Plus<u64> plus_;
  std::optional<dc::net::DualCube> d_;
  std::optional<dc::sim::ShardEngine> eng_;
  std::vector<u64> out_;
  u64 op_seed_ = 0, next_base_ = 0;
  bool tiled_ = true;
  Counters counters_, virt_;
  std::size_t arena_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "prefix_flat_d8") return std::make_unique<FlatPrefix>(8);
  if (name == "sort_d6") return std::make_unique<Sort>(6);
  if (name == "prefix_sharded_d11")
    return std::make_unique<ShardedPrefix>(11, 4);
  throw std::runtime_error("unknown workload: " + name);
}

// ---- output -----------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

void emit(const std::string& line) {
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

std::string cpu_model() {
#if defined(__x86_64__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3]))
      return "unknown";
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
#else
  return "unknown";
#endif
}

// ---- runner -----------------------------------------------------------

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  bool probes = true;
  int setup_reps = 7;
  double setup_every = 0;
  int warmup = 3;
  u64 op_base = 0;
  Inject inject = Inject::kNone;
  u64 inject_op = 0;
  std::string store_dir;
  std::string trace_out;
};

Inject parse_inject(const std::string& kind) {
  if (kind == "corrupt_prefix") return Inject::kCorruptPrefix;
  if (kind == "unsorted") return Inject::kUnsorted;
  if (kind == "counter_off") return Inject::kCounterOff;
  if (kind == "sleep") return Inject::kSleep;
  if (kind == "abort") return Inject::kAbort;
  throw std::runtime_error("unknown --inject kind: " + kind);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--probes") a.probes = v == "1";
    else if (k == "--setup-reps") a.setup_reps = std::stoi(v);
    else if (k == "--setup-every") a.setup_every = std::stod(v);
    else if (k == "--warmup") a.warmup = std::stoi(v);
    else if (k == "--op-base") a.op_base = std::stoull(v);
    else if (k == "--store-dir") a.store_dir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--inject") {
      const auto at = v.find('@');
      if (at == std::string::npos)
        throw std::runtime_error("--inject wants KIND@OP");
      a.inject = parse_inject(v.substr(0, at));
      a.inject_op = std::stoull(v.substr(at + 1));
    } else {
      throw std::runtime_error("unknown flag: " + k);
    }
  }
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  return a;
}

class Runner {
 public:
  Runner(Args args, Workload& w) : a_(std::move(args)), w_(w) {}

  /// Runs op `index` end to end: inputs, timed call, check, and any injected
  /// fault. Returns the status; wall/cpu of the timed call land in *wall,
  /// *cpu.
  Status op(u64 index, u64* wall, u64* cpu) {
    w_.prepare(op_seed_of(a_.seed, index));
    const bool inject_here =
        a_.inject != Inject::kNone && index == a_.inject_op;
    tracer_.op = index;
    const u64 c0 = cpu_ns();
    const u64 t0 = wall_ns();
    Status st = Status::kOk;
    try {
      ScopedSpan s(tracer_, "bench.op");
      w_.run(tracer_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "op %" PRIu64 " threw: %s\n", index, e.what());
      st = Status::kException;
    }
    const u64 t1 = wall_ns();
    const u64 c1 = cpu_ns();
    if (wall) *wall = t1 - t0;
    if (cpu) *cpu = c1 - c0;
    if (inject_here && a_.inject == Inject::kAbort) std::abort();
    if (inject_here && a_.inject == Inject::kSleep) {
      // Past any op deadline of run.py, which kills the worker first.
      std::this_thread::sleep_for(std::chrono::seconds(3600));
    }
    if (st == Status::kOk) st = w_.check(inject_here ? a_.inject : Inject::kNone);
    return st;
  }

  /// One cold set-up: empty schedule cache, no store, fresh topology and
  /// engine, through the first (recording) op. Emits a "setup" line.
  Status cold_setup() {
    auto& cache = dc::sim::ScheduleCache::instance();
    cache.attach_store(nullptr);
    cache.clear();
    w_.release();
    const u64 t0 = wall_ns();
    w_.build();
    const u64 t1 = wall_ns();
    u64 first = 0;
    const Status st = op(next_op_++, &first, nullptr);
    emit("{\"ev\":\"setup\",\"build_ns\":" + std::to_string(t1 - t0) +
         ",\"first_op_ns\":" + std::to_string(first) + ",\"status\":\"" +
         status_name(st) + "\"}");
    return st;
  }

  /// Timed op that must succeed (probes); a failure ends the worker.
  double probe_op_ns() {
    u64 wall = 0;
    const Status st = op(probe_op_++, &wall, nullptr);
    emit(std::string("{\"ev\":\"probe_op\",\"status\":\"") +
         status_name(st) + "\"}");
    if (st != Status::kOk) std::exit(3);
    return static_cast<double>(wall);
  }

  int main() {
    emit_env();
    (void)dc::ThreadPool::shared();
    auto& cache = dc::sim::ScheduleCache::instance();

    for (int r = 0; r < a_.setup_reps; ++r) {
      if (cold_setup() != Status::kOk) return 3;
    }
    for (int k = 0; k < a_.warmup; ++k) {
      const Status st = op(next_op_++, nullptr, nullptr);
      emit(std::string("{\"ev\":\"warmup\",\"status\":\"") +
           status_name(st) + "\"}");
      if (st != Status::kOk) return 3;
    }
    probe_op_ = a_.op_base + (u64{1} << 40);

    if (a_.trace && a_.probes) emit("{\"ev\":\"probes\"," + probes() + "}");

    tracer_.reserve(1 << 16);
    emit("{\"ev\":\"phase\",\"name\":\"loop\"}");
    const u64 loop_ns = static_cast<u64>(a_.seconds * 1e9);
    const u64 start = wall_ns();
    const u64 setup_every = static_cast<u64>(a_.setup_every * 1e9);
    u64 last_setup = start;
    u64 ops = 0;
    while (wall_ns() - start < loop_ns) {
      // Further cold set-ups spread over the loop, so set-up time is
      // sampled at many moments of the run, not in one burst.
      if (setup_every > 0 && wall_ns() - last_setup >= setup_every) {
        if (cold_setup() != Status::kOk) return 3;
        last_setup = wall_ns();
      }
      // Traced runs alternate blocks of traced and untraced ops, so the
      // tracing overhead is a same-process comparison.
      tracer_.on = a_.trace && (ops / 4) % 2 == 1;
      const std::size_t first_span = tracer_.size();
      const auto cs0 = cache.stats();
      const u64 steal0 = dc::ThreadPool::shared().affinity_steals();
      u64 wall = 0, cpu = 0;
      const Status st = op(next_op_++, &wall, &cpu);
      ++ops;
      const u64 ref = ref_.warm_ns(op_seed_of(a_.seed, ops));
      std::string line = std::string("{\"ev\":\"op\",\"status\":\"") +
                         status_name(st) + "\",\"wall_ns\":" +
                         std::to_string(wall) +
                         ",\"cpu_ns\":" + std::to_string(cpu) +
                         ",\"ref_ns\":" + std::to_string(ref);
      if (a_.trace) {
        const auto cs1 = cache.stats();
        const Counters c = w_.counters();
        line += ",\"traced\":" + std::string(tracer_.on ? "1" : "0") +
                ",\"self_ns\":" +
                num(tracer_.self_ns(w_.algorithm_span(), first_span)) +
                ",\"steals\":" +
                num(dc::ThreadPool::shared().affinity_steals() - steal0) +
                ",\"hits\":" + num(cs1.hits - cs0.hits) +
                ",\"misses\":" + num(cs1.misses - cs0.misses) +
                ",\"schedule_bytes\":" + num(cs1.bytes) +
                ",\"comm_cycles\":" + num(c.comm_cycles) +
                ",\"comp_steps\":" + num(c.comp_steps) +
                ",\"messages\":" + num(c.messages) +
                ",\"ops\":" + num(c.ops) +
                ",\"arena_bytes\":" + num(w_.arena_bytes());
      }
      emit(line + "}");
      if (st != Status::kOk) return 3;
    }
    tracer_.on = false;
    if (a_.trace && !a_.trace_out.empty()) tracer_.write(a_.trace_out);
    emit("{\"ev\":\"end\",\"peak_rss_kb\":" + std::to_string(peak_rss_kb()) +
         "}");
    return 0;
  }

 private:
  template <typename T>
  static std::string num(T v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", static_cast<double>(v));
    return buf;
  }

  void emit_env() {
    emit("{\"ev\":\"env\",\"cpu_model\":" + json_str(cpu_model()) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"dc_threads\":" +
         json_str(std::getenv("DC_THREADS") ? std::getenv("DC_THREADS") : "") +
         ",\"pool_workers\":" +
         std::to_string(dc::ThreadPool::shared().size()) + ",\"simd_isa\":" +
         json_str(dc::sim::simd::isa_name(dc::sim::simd::active_isa())) +
         ",\"compiler\":" + json_str(std::string("gcc ") + __VERSION__) +
         ",\"build_type\":" + json_str(PERFBENCH_BUILD_TYPE) + "}");
  }

  /// Median over `batches` of the mean ns of `reps` calls of f.
  template <typename F>
  static double batch_ns(int batches, int reps, F&& f) {
    std::vector<double> v;
    for (int b = 0; b < batches; ++b) {
      const u64 t0 = wall_ns();
      for (int i = 0; i < reps; ++i) f();
      v.push_back(static_cast<double>(wall_ns() - t0) / reps);
      emit("{\"ev\":\"tick\"}");
    }
    return median(v);
  }

  /// Per-layer probes: each times one public call of one module in
  /// isolation, at this workload's size. Returns the JSON fields.
  std::string probes() {
    auto& cache = dc::sim::ScheduleCache::instance();
    const dc::net::Topology& topo = w_.machine_topology();
    const std::size_t n = static_cast<std::size_t>(topo.node_count());
    std::string out;

    // topology.build_ms: a fresh workload topology plus its CSR adjacency
    // (and, sharded, the engine that owns the cluster topology).
    {
      std::vector<double> v;
      auto fresh = make_workload(a_.workload);
      for (int i = 0; i < 5; ++i) {
        const u64 t0 = wall_ns();
        fresh->build();
        v.push_back(static_cast<double>(wall_ns() - t0));
        fresh->release();
      }
      out += "\"topology.build_ms\":" + num(median(v) / 1e6);
    }
    // sim.machine.construct_us: Machine over one machine's topology.
    {
      std::vector<double> v;
      for (int i = 0; i < 25; ++i) {
        std::optional<dc::sim::Machine> m;
        const u64 t0 = wall_ns();
        m.emplace(topo);
        v.push_back(static_cast<double>(wall_ns() - t0));
      }
      out += ",\"sim.machine.construct_us\":" + num(median(v) / 1e3);
    }
    // sim.shard.construct_ms: ShardEngine(DualCube(order), 4) at this
    // workload's size.
    {
      const dc::net::DualCube d(w_.order());
      std::vector<double> v;
      for (int i = 0; i < 5; ++i) {
        std::optional<dc::sim::ShardEngine> e;
        const u64 t0 = wall_ns();
        e.emplace(d, 4u, std::size_t{0});
        v.push_back(static_cast<double>(wall_ns() - t0));
      }
      out += ",\"sim.shard.construct_ms\":" + num(median(v) / 1e6);
    }
    // support.pool.dispatch_us: one parallel_for_chunked job with an
    // empty body over n indices.
    {
      std::atomic<u64> sink{0};
      const double ns = batch_ns(15, 200, [&] {
        dc::parallel_for_chunked(0, n, [&](std::size_t lo, std::size_t) {
          if (lo == std::numeric_limits<std::size_t>::max())
            sink.fetch_add(1, std::memory_order_relaxed);
        });
      });
      out += ",\"support.pool.dispatch_us\":" + num(ns / 1e3);
    }
    // sim.machine.gather_us / compute_us: one width-1 block replay cycle
    // and one compute step over n nodes on a machine of this workload.
    {
      dc::sim::Machine m(topo);
      std::vector<u64> vals(n), acc(n, 0);
      for (std::size_t i = 0; i < n; ++i) vals[i] = i;
      const auto dest = [&](NodeId u) { return w_.matching(u); };
      const auto src = [&](NodeId u, u64* dst) { *dst = vals[u]; };
      std::shared_ptr<const dc::sim::Schedule> sched;
      for (int pass = 0; pass < 2 && !sched; ++pass) {
        dc::sim::ObliviousSection sec(m, "perfbench_gather", {});
        if (sec.replaying()) {
          sched = sec.schedule();
        } else {
          (void)sec.exchange_blocks<u64>(1, dest, src);
          sec.commit();
        }
      }
      const dc::sim::ScheduleCycle& cyc = sched->cycle(0);
      const double g = batch_ns(15, 20, [&] {
        auto inbox = m.comm_cycle_scheduled_blocks<u64>(cyc, 1, src);
        acc[0] += *inbox.block(0);
      });
      const double c = batch_ns(15, 20, [&] {
        m.compute_step([&](NodeId u) { acc[u] += vals[u]; });
      });
      out += ",\"sim.machine.gather_us\":" + num(g / 1e3) +
             ",\"sim.machine.compute_us\":" + num(c / 1e3);
    }
    // sim.schedule.record_ms: cold op (memory cache cleared, no store)
    // minus warm op.
    {
      std::vector<double> cold, warm;
      for (int i = 0; i < 5; ++i) {
        cache.clear();
        cold.push_back(probe_op_ns());
        warm.push_back(probe_op_ns());
      }
      out += ",\"sim.schedule.record_ms\":" +
             num((median(cold) - median(warm)) / 1e6);
    }
    // sim.schedule_store.load_ms: store attached and primed, memory cache
    // cleared, minus warm op.
    if (!a_.store_dir.empty()) {
      dc::sim::attach_schedule_store(a_.store_dir);
      cache.clear();
      (void)probe_op_ns();  // records and writes through
      std::vector<double> load, warm;
      for (int i = 0; i < 5; ++i) {
        cache.clear();
        load.push_back(probe_op_ns());
        warm.push_back(probe_op_ns());
      }
      cache.attach_store(nullptr);
      cache.clear();
      (void)probe_op_ns();
      out += ",\"sim.schedule_store.load_ms\":" +
             num((median(load) - median(warm)) / 1e6);
    }
    // sim.trace.flight_ratio: dcsim's crash-buffer recorder attached vs
    // bare, measured in alternating pairs; median of the pair ratios.
    {
      dc::sim::TraceRecorder rec(dc::ThreadPool::shared().size() + 1,
                                 /*caller_capacity=*/256,
                                 /*worker_capacity=*/64);
      std::vector<double> ratio;
      for (int i = 0; i < 30; ++i) {
        double bare = 0, flight = 0;
        for (int side = 0; side < 2; ++side) {
          const bool with = (side == 0) == (i % 2 == 0);
          w_.set_recorder(with ? &rec : nullptr);
          (with ? flight : bare) = probe_op_ns();
        }
        w_.set_recorder(nullptr);
        ratio.push_back(flight / std::max(bare, 1.0));
      }
      out += ",\"sim.trace.flight_ratio\":" + num(median(ratio));
    }
    return out;
  }

  Args a_;
  Workload& w_;
  Tracer tracer_;
  Reference ref_;
  u64 next_op_ = a_.op_base;
  u64 probe_op_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    auto w = make_workload(args.workload);
    Runner runner(args, *w);
    return runner.main();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_worker: %s\n", e.what());
    return 2;
  }
}
