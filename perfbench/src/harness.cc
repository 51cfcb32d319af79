#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <thread>

#include "xml/structural_scan.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

// JSON string literal for `s` (quotes, backslashes and control bytes
// escaped).
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Every digit of `v`, so that repeated runs never print the same rounded
// figure.
std::string Number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int Recorder::Open(const char* name) {
  if (!trace_) return -1;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, 0, 0, open_.empty() ? -1 : open_.back(),
                        round_});
  open_.push_back(index);
  return index;
}

void Recorder::Close(int span, int64_t start, int64_t end) {
  if (span < 0) return;
  spans_[span].start_ns = start;
  spans_[span].end_ns = end;
  open_.pop_back();
}

void Recorder::BeginRound(int r) {
  round_ = r;
  round_span_ = Open("round");
  round_start_ = NowNs();
}

void Recorder::EndRound() {
  Close(round_span_, round_start_, NowNs());
  round_span_ = -1;
  round_ = -1;
}

bool Recorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"round\":%d}}\n",
                 i == 0 ? "" : ",", Quote(s.name).c_str(),
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent, s.round);
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

double Samples::Fastest(const std::string& key) const {
  auto it = samples_.find(key);
  if (it == samples_.end() || it->second.empty()) return 0;
  return *std::min_element(it->second.begin(), it->second.end());
}

void OpLog::Record(const std::string& what, const std::string& error) {
  ++attempted_;
  if (error.empty()) return;
  ++failed_;
  if (failed_ <= 20) {
    std::cerr << "perfbench: FAILED " << what << ": " << error << "\n";
  }
}

int RunRounds(Recorder* rec, double seconds, int min_rounds,
              const std::function<void(int)>& round) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(seconds * 1e9);
  int r = 0;
  while (r < min_rounds || NowNs() - start < budget) {
    if (cpus.size() > 1) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[r % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    rec->BeginRound(r);
    round(r);
    rec->EndRound();
    ++r;
  }
  if (cpus.size() > 1) sched_setaffinity(0, sizeof(allowed), &allowed);
  return r;
}

RunResult Stopped(const OpLog& ops) {
  RunResult result;
  result.correct = false;
  result.attempted = ops.attempted();
  result.failed = ops.failed();
  return result;
}

void FinishTrace(const Recorder& rec, const RunOptions& options,
                 RunResult* result) {
  if (!rec.tracing() || options.trace_out.empty()) return;
  if (!rec.WriteChromeTrace(options.trace_out)) {
    std::cerr << "perfbench: cannot write trace " << options.trace_out << "\n";
    result->correct = false;
  }
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

std::string BuildFactsJson() {
  return std::string("{\"build\":{\"compiler\":") + Quote(PERFBENCH_COMPILER) +
         ",\"flags\":" + Quote(PERFBENCH_FLAGS) +
         ",\"scan_kind\":" + Quote(twigm::xml::StructuralScanKind()) +
         ",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) + "}}";
}

std::string ResultJson(const RunResult& result) {
  std::string out = std::string("{\"correct\": ") +
                    (result.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(result.attempted) +
                    ", \"failed\": " + std::to_string(result.failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += Quote(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quote(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
