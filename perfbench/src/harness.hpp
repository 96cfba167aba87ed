// Measurement plumbing for the MIC benchmark: host timing, the percentile
// rule, in-memory spans with self time, a storage backend that times every
// op, and the result record a workload fills.  Nothing here reaches into
// the simulator's internals; workloads time calls into its public API.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/journal_store.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of this process.  Measured samples and set-ups are timed with
/// it, so time the process spends descheduled on a shared host is left out.
std::int64_t cpu_ns();

// --- the percentile rule -----------------------------------------------------

/// Nearest-rank percentile of an ascending sample: the value at rank
/// ceil(p/100 * n).  `sorted` must be non-empty.
double percentile(const std::vector<double>& sorted, double p);

/// Samples ranked above the nearest-rank `p`-th percentile of `n` samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest of 50, 90, 99, 99.9 and 99.99 with at least ten samples
/// beyond it; 0 when even the median has fewer than ten.
double highest_supported_percentile(std::size_t n);

/// One timing as the benchmark reports it: sample count, median, and the
/// highest percentile the sample supports.
struct Timing {
  std::size_t n = 0;
  double p50 = 0;
  double tail_p = 0;  // which percentile `tail` is (0: none supported)
  double tail = 0;
  double p99 = 0;     // 0 unless at least ten samples lie beyond it
};
Timing summarize(std::vector<double> samples);

// --- repeated samples --------------------------------------------------------

/// Host CPU times of one fixed sequence of timed samples, repeated on fresh
/// set-ups of one seed.  The first repetition defines the sequence: how
/// many samples, and how many operations each carries.  Every later one
/// must repeat it exactly.  A sample's time is its minimum over the
/// repetitions: interference from a shared host only ever adds time, so
/// the minimum over identical work is the steadiest figure for what the
/// code itself costs.
class RepeatMeter {
 public:
  /// Start a repetition; samples are numbered from 0 again.
  void begin_repetition();
  /// Record the current repetition's next sample.  False (and nothing
  /// recorded) when a later repetition goes beyond the first one's length
  /// or carries another operation count.
  bool add(std::int64_t ns, double ops);

  std::size_t repetitions() const noexcept { return reps_; }
  /// Samples per repetition: those of the first.
  std::size_t length() const noexcept { return ops_.size(); }
  /// Samples recorded so far in the current repetition.
  std::size_t position() const noexcept { return next_; }
  /// Samples per repetition that carry operations (those op_us() holds).
  std::size_t op_samples() const noexcept { return op_samples_; }

  double ops() const;
  /// Sum of the per-sample minima, in seconds.
  double best_s() const;
  /// Operations over best_s().
  double rate() const;
  /// The same over samples [first, last) only.
  double rate(std::size_t first, std::size_t last) const;
  /// Per-operation time of each sample with operations, in microseconds.
  std::vector<double> op_us() const;

 private:
  std::vector<std::int64_t> best_ns_;
  std::vector<double> ops_;
  std::size_t next_ = 0;
  std::size_t reps_ = 0;
  std::size_t op_samples_ = 0;
};

// --- spans -------------------------------------------------------------------

/// Spans kept in memory: opened and closed strictly nested on one thread.
/// Self time (a span's duration minus the time its direct children cover)
/// is folded into per-name totals as each span closes, so totals stay
/// exact when the stored span list hits its cap.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNoParent;  // index into spans(), if stored
    std::uint64_t id = 0;              // request index (0: none)
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  static constexpr std::uint32_t kNoParent = ~0u;

  explicit Tracer(std::size_t max_stored = 1u << 17)
      : max_stored_(max_stored) {}

  /// Spans are recorded only while enabled; disabled open/close are no-ops.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  void open(const char* name, std::uint64_t id = 0) {
    open_at(name, id, now_ns());
  }
  void close() { close_at(now_ns()); }
  /// Explicit-clock variants (tests).
  void open_at(const char* name, std::uint64_t id, std::int64_t t);
  void close_at(std::int64_t t);

  const Totals& totals(const std::string& name) const;
  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Write the stored spans as Chrome trace-event JSON (ph "X", times in
  /// microseconds), with each name's totals in the metadata.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Open {
    std::uint32_t name;
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t child_ns = 0;
    std::uint32_t stored = kNoParent;
  };
  std::uint32_t intern(const char* name);

  bool enabled_ = false;
  std::size_t max_stored_;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t id = 0)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->open(name, id);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

// --- storage timing decorator ------------------------------------------------

/// core::StorageBackend that forwards every op to a SimBackend and counts
/// the bytes appended.  While the tracer is enabled it also times each
/// append, sync, rename and remove and records a span (a child of whatever
/// establish or teardown span is open).
class TimedBackend final : public mic::core::StorageBackend {
 public:
  struct OpStats {
    std::uint64_t timed = 0;  // ops timed while tracing
    std::int64_t ns = 0;      // wall time of the timed ops
  };
  struct Stats {
    OpStats append, sync, rename, remove;
    std::uint64_t bytes_written = 0;
  };

  explicit TimedBackend(Tracer* tracer) : tracer_(tracer) {}

  void create(const std::string& name) override { inner_.create(name); }
  void append(const std::string& name, const std::uint8_t* data,
              std::size_t size) override;
  void sync(const std::string& name) override;
  void rename(const std::string& from, const std::string& to) override;
  void remove(const std::string& name) override;
  std::vector<std::string> list() const override { return inner_.list(); }
  std::vector<std::uint8_t> read(const std::string& name) const override {
    return inner_.read(name);
  }

  const Stats& stats() const noexcept { return stats_; }

 private:
  template <typename F>
  void timed(OpStats& op, const char* span, F&& body);

  mic::core::SimBackend inner_;
  Tracer* tracer_;
  Stats stats_;
};

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct WorkloadResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Simulated outcome counts that must repeat exactly for one seed.
  std::vector<std::pair<std::string, std::uint64_t>> outcomes;
  /// Human-readable report lines (the workload-specific metric names).
  std::vector<std::string> report;

  void fail_check(const std::string& why);
  void add_report(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Compare `outcomes` with the record kept at `path`, or create the record
/// when there is none.  Returns the mismatches.  The caller keys `path` to
/// the workload, the seed and the build being measured: runs of one build
/// must repeat exactly, while a change to the code may change the counts.
std::vector<std::string> check_outcomes(
    const std::string& path,
    const std::vector<std::pair<std::string, std::uint64_t>>& outcomes);

}  // namespace perfbench
