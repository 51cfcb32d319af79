// Timing, tracing, operation accounting and result printing shared by the
// perfbench workloads.
//
// Every timed call goes through Recorder::Time, which reads the clock
// around it and, in a traced run, also keeps a span (name, start, end,
// parent, round) in memory. Spans are written as Chrome trace-event JSON
// when the run ends. Untraced and traced runs execute the same calls; the
// only difference is the span bookkeeping, so comparing their end-to-end
// figures gives the tracing overhead.
//
// A workload runs whole rounds of its operations until the time budget is
// spent, and each metric is the fastest of a call's rounds (see README.md
// for why the fastest and not a median).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Recorder {
 public:
  explicit Recorder(bool trace) : trace_(trace) {}

  bool tracing() const { return trace_; }

  // Runs `fn` and returns its wall time in seconds. `name` must outlive the
  // recorder. Calls nest: a Time inside another's `fn` becomes its child.
  template <typename F>
  double Time(const char* name, F&& fn) {
    const int span = Open(name);
    const int64_t start = NowNs();
    fn();
    const int64_t end = NowNs();
    Close(span, start, end);
    return static_cast<double>(end - start) * 1e-9;
  }

  // Spans opened between BeginRound and EndRound carry round `r` and have
  // the round's own span as their root.
  void BeginRound(int r);
  void EndRound();

  // Writes every span as a Chrome trace-event "X" record. Returns false if
  // the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // -1 at the root
    int32_t round;   // -1 outside rounds (set-up, checks)
  };

  int Open(const char* name);
  void Close(int span, int64_t start, int64_t end);

  bool trace_;
  int round_ = -1;
  int round_span_ = -1;
  int64_t round_start_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// Fastest-of-rounds samples per named call.
class Samples {
 public:
  void Add(const std::string& key, double seconds) {
    samples_[key].push_back(seconds);
  }
  // Fastest sample of `key` in seconds; 0 when there is none.
  double Fastest(const std::string& key) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

// Counts operations and failed ones. Each failure is reported on stderr
// (the first few in full) so a broken run says what broke.
class OpLog {
 public:
  // Records one operation; `error` empty means it succeeded.
  void Record(const std::string& what, const std::string& error);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

// Options a run receives from the command line.
struct RunOptions {
  std::string workload;  // one of kWorkloads (inputs.h)
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace path for traced runs; may be empty
};

// Runs `round(r)` for r = 0, 1, ... until `seconds` have passed since the
// first round began and at least `min_rounds` rounds are done. Each round
// is bracketed by Recorder::BeginRound/EndRound. Round r runs with the
// calling thread pinned to the r-th of the CPUs the process may use, in
// turn, so every timed call has samples from every CPU (see README.md);
// threads started before the rounds keep their own affinity, and the
// caller's is restored at the end. Returns the rounds run.
int RunRounds(Recorder* rec, double seconds, int min_rounds,
              const std::function<void(int)>& round);

// The result of a run that cannot go on: incorrect, with the counts so far.
RunResult Stopped(const OpLog& ops);

// In a traced run, writes the spans to options.trace_out (when set); a
// write failure is reported on stderr and makes the run incorrect.
void FinishTrace(const Recorder& rec, const RunOptions& options,
                 RunResult* result);

// Peak resident set of the process so far, in MB (10^6 bytes).
double PeakRssMb();

// One JSON line with the build facts: compiler, flags, scan kernel, nproc.
std::string BuildFactsJson();

// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
