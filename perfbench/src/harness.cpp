#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace perfbench {

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// --- the percentile rule -----------------------------------------------------

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  // Rank in 1..n; the small epsilon keeps e.g. 99% of 1000 at exactly 990.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)),
                                 1, n);
}

}  // namespace

double percentile(const std::vector<double>& sorted, double p) {
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double highest_supported_percentile(std::size_t n) {
  double best = 0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (samples_beyond(n, p) >= 10) best = p;
  }
  return best;
}

Timing summarize(std::vector<double> samples) {
  Timing t;
  t.n = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  t.p50 = percentile(samples, 50);
  t.tail_p = highest_supported_percentile(t.n);
  if (t.tail_p > 0) t.tail = percentile(samples, t.tail_p);
  if (samples_beyond(t.n, 99) >= 10) t.p99 = percentile(samples, 99);
  return t;
}

// --- repeated samples --------------------------------------------------------

void RepeatMeter::begin_repetition() {
  ++reps_;
  next_ = 0;
}

bool RepeatMeter::add(std::int64_t ns, double ops) {
  if (reps_ <= 1) {
    best_ns_.push_back(ns);
    ops_.push_back(ops);
    if (ops > 0) ++op_samples_;
  } else if (next_ >= ops_.size() || ops_[next_] != ops) {
    return false;
  } else {
    best_ns_[next_] = std::min(best_ns_[next_], ns);
  }
  ++next_;
  return true;
}

double RepeatMeter::ops() const {
  double total = 0;
  for (const double o : ops_) total += o;
  return total;
}

double RepeatMeter::best_s() const {
  double total = 0;
  for (const std::int64_t ns : best_ns_) total += static_cast<double>(ns);
  return total / 1e9;
}

double RepeatMeter::rate() const { return ops() / best_s(); }

double RepeatMeter::rate(std::size_t first, std::size_t last) const {
  double ops = 0, ns = 0;
  for (std::size_t i = first; i < last && i < ops_.size(); ++i) {
    ops += ops_[i];
    ns += static_cast<double>(best_ns_[i]);
  }
  return ops / ns * 1e9;
}

std::vector<double> RepeatMeter::op_us() const {
  std::vector<double> us;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i] > 0) {
      us.push_back(static_cast<double>(best_ns_[i]) / 1e3 / ops_[i]);
    }
  }
  return us;
}

// --- spans -------------------------------------------------------------------

std::uint32_t Tracer::intern(const char* name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void Tracer::open_at(const char* name, std::uint64_t id, std::int64_t t) {
  if (!enabled_) return;
  Open span{intern(name), id, t};
  // The slot is taken at open so children can name their parent's index.
  if (spans_.size() < max_stored_) {
    span.stored = static_cast<std::uint32_t>(spans_.size());
    const std::uint32_t parent =
        stack_.empty() ? kNoParent : stack_.back().stored;
    spans_.push_back(Span{span.name, parent, id, t, t});
  } else {
    ++dropped_;
  }
  stack_.push_back(span);
}

void Tracer::close_at(std::int64_t t) {
  if (!enabled_ || stack_.empty()) return;
  const Open span = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = t - span.start_ns;
  Totals& totals = totals_[span.name];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - span.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (span.stored != kNoParent) spans_[span.stored].end_ns = t;
}

const Tracer::Totals& Tracer::totals(const std::string& name) const {
  static const Totals kNone;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return kNone;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t first = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu,\"parent\":%lld}}%s\n",
                 names_[s.name].c_str(),
                 static_cast<double>(s.start_ns - first) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "],\"otherData\":{\"dropped_spans\":%llu",
               static_cast<unsigned long long>(dropped_));
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(out,
                 ",\"%s\":{\"count\":%llu,\"total_ns\":%lld,\"self_ns\":%lld}",
                 names_[i].c_str(),
                 static_cast<unsigned long long>(totals_[i].count),
                 static_cast<long long>(totals_[i].total_ns),
                 static_cast<long long>(totals_[i].self_ns));
  }
  std::fprintf(out, "}}\n");
  return std::fclose(out) == 0;
}

// --- storage timing decorator ------------------------------------------------

template <typename F>
void TimedBackend::timed(OpStats& op, const char* span, F&& body) {
  if (tracer_ == nullptr || !tracer_->enabled()) {
    body();
    return;
  }
  Scope scope(tracer_, span);
  const std::int64_t start = now_ns();
  body();
  op.ns += now_ns() - start;
  ++op.timed;
}

void TimedBackend::append(const std::string& name, const std::uint8_t* data,
                          std::size_t size) {
  timed(stats_.append, "store.append",
        [&] { inner_.append(name, data, size); });
  stats_.bytes_written += size;
}

void TimedBackend::sync(const std::string& name) {
  timed(stats_.sync, "store.sync", [&] { inner_.sync(name); });
}

void TimedBackend::rename(const std::string& from, const std::string& to) {
  timed(stats_.rename, "store.rename", [&] { inner_.rename(from, to); });
}

void TimedBackend::remove(const std::string& name) {
  timed(stats_.remove, "store.remove", [&] { inner_.remove(name); });
}

// --- results -----------------------------------------------------------------

void WorkloadResult::fail_check(const std::string& why) {
  correct = false;
  report.push_back("CHECK FAILED: " + why);
}

void WorkloadResult::add_report(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  report.emplace_back(buf);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::string> check_outcomes(
    const std::string& path,
    const std::vector<std::pair<std::string, std::uint64_t>>& outcomes) {
  std::vector<std::string> mismatches;
  std::ifstream in(path);
  if (!in) {
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp);
      for (const auto& [key, value] : outcomes) {
        out << key << ' ' << value << '\n';
      }
    }
    std::rename(tmp.c_str(), path.c_str());
    return mismatches;
  }
  std::map<std::string, std::uint64_t> recorded;
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) recorded[key] = value;
  for (const auto& [k, v] : outcomes) {
    const auto it = recorded.find(k);
    if (it == recorded.end() || it->second != v) {
      std::ostringstream msg;
      msg << k << " = " << v << ", recorded "
          << (it == recorded.end() ? std::string("nothing")
                                   : std::to_string(it->second))
          << " for this seed";
      mismatches.push_back(msg.str());
    }
  }
  return mismatches;
}

}  // namespace perfbench
