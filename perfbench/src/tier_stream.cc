// The paper's own experiment: each of the corpus's ten Fig. 6 queries runs
// in its own XPathStreamProcessor, fed in kChunkBytes chunks, once plain
// and once with an obs::Instrumentation attached. Each query pays its own
// parse.

#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "obs/instrumentation.h"
#include "tiers.h"

namespace perfbench {

using twigm::Status;
using twigm::core::EvaluatorOptions;
using twigm::core::XPathStreamProcessor;

struct StreamTier::Pass {
  const Query* query = nullptr;
  std::string create_key, pass_span, observed_span;
  IdSink sink;             // this pass's results
  Ids reference;           // round 0's plain result, checked against the DOM
  Ids observed_reference;  // round 0's observed result, likewise
  twigm::core::EngineStats stats;  // round 0's plain pass
  const char* engine = "";
};

namespace {

// One full pass — Create, every chunk, the last chunk — timed as sample
// and span `span` with "create" and "consume" children. `create_key`, when
// not null, names the sample that receives the Create time. Returns "" or
// the error.
std::string TimePass(const Env& env, const std::string& span,
                     const Query& query, const EvaluatorOptions& options,
                     IdSink* sink, const std::string* create_key,
                     std::unique_ptr<XPathStreamProcessor>* done) {
  Recorder* rec = env.rec;
  std::string error;
  env.samples->Add(span, rec->Time(span.c_str(), [&] {
    twigm::Result<std::unique_ptr<XPathStreamProcessor>> proc =
        Status::Internal("not created");
    const double create_s = rec->Time("create", [&] {
      proc = XPathStreamProcessor::Create(query.text, sink, options);
    });
    if (create_key != nullptr) env.samples->Add(*create_key, create_s);
    if (!proc.ok()) {
      error = proc.status().ToString();
      return;
    }
    Status s;
    rec->Time("consume", [&] { s = Feed(proc.value().get(), env.chunks); });
    if (!s.ok()) error = s.ToString();
    *done = std::move(proc).value();
  }));
  return error;
}

// Round 0 keeps its result as the reference (checked against the DOM at
// the end); later rounds must report the same ids.
std::string CheckRound(int round, const Ids& got, Ids* reference) {
  if (round == 0) {
    *reference = got;
    return "";
  }
  return CheckSameIds(*reference, got);
}

}  // namespace

StreamTier::StreamTier(const Env* env) : env_(env) {
  for (const Query& q : env->corpus->queries) {
    auto p = std::make_unique<Pass>();
    p->query = &q;
    p->create_key = "create " + q.name;
    p->pass_span = "pass " + q.name;
    p->observed_span = "observed pass " + q.name;
    passes_.push_back(std::move(p));
  }
}

StreamTier::~StreamTier() = default;

std::string StreamTier::Setup() {
  IdSink sink;
  std::string error;
  for (const auto& p : passes_) {
    auto proc = XPathStreamProcessor::Create(p->query->text, &sink);
    if (!proc.ok()) Join(&error, proc.status().ToString());
  }
  return error;
}

void StreamTier::Round(int r) {
  for (const auto& p : passes_) {
    std::unique_ptr<XPathStreamProcessor> proc;
    p->sink.Clear();
    std::string error = TimePass(*env_, p->pass_span, *p->query,
                                 EvaluatorOptions(), &p->sink, &p->create_key,
                                 &proc);
    if (error.empty()) {
      error = CheckRound(r, p->sink.ids(), &p->reference);
      if (r == 0) {
        p->stats = proc->stats();
        p->engine = twigm::core::EngineKindToString(proc->engine_kind());
      }
    }
    env_->ops->Record(p->pass_span, error);

    twigm::obs::Instrumentation instrumentation;
    EvaluatorOptions observed;
    observed.instrumentation = &instrumentation;
    p->sink.Clear();
    error = TimePass(*env_, p->observed_span, *p->query, observed, &p->sink,
                     nullptr, &proc);
    if (error.empty()) {
      error = CheckRound(r, p->sink.ids(), &p->observed_reference);
    }
    env_->ops->Record(p->observed_span, error);
  }
}

void StreamTier::Check(const std::vector<Ids>& want) {
  for (size_t i = 0; i < passes_.size(); ++i) {
    const Pass& p = *passes_[i];
    env_->ops->Record("DOM check " + p.pass_span,
                      CheckSameIds(want[i], p.reference));
    env_->ops->Record("DOM check " + p.observed_span,
                      CheckSameIds(want[i], p.observed_reference));
  }
}

void StreamTier::Report(RunResult* result) const {
  double plain_s = 0, observed_s = 0;
  uint64_t state_bytes = 0;
  for (const auto& p : passes_) {
    plain_s += env_->samples->Fastest(p->pass_span);
    observed_s += env_->samples->Fastest(p->observed_span);
    state_bytes += p->stats.peak_state_bytes;
  }
  const double mb = static_cast<double>(env_->corpus->bytes.size()) *
                    static_cast<double>(passes_.size()) / 1e6;
  result->Add("stream_mb_s", mb / plain_s, "MB/s");
  result->Add("stream_observed_mb_s", mb / observed_s, "MB/s");
  result->Add("engine_state_kb", static_cast<double>(state_bytes) / 1024.0,
              "KiB");
}

void StreamTier::ReportLayers(double drive_s, RunResult* result) const {
  double plain_s = 0, observed_s = 0, compile_s = 0;
  uint64_t pushes = 0, predicate_checks = 0, unions = 0;
  for (const auto& p : passes_) {
    plain_s += env_->samples->Fastest(p->pass_span);
    observed_s += env_->samples->Fastest(p->observed_span);
    compile_s += env_->samples->Fastest(p->create_key);
    pushes += p->stats.pushes;
    predicate_checks += p->stats.predicate_checks;
    unions += p->stats.candidate_unions;
  }
  result->Add("xpath.compile_us", compile_s * 1e6, "us");
  result->Add("core.machine_ms",
              (plain_s - drive_s * static_cast<double>(passes_.size())) * 1e3,
              "ms");
  for (const auto& p : passes_) {
    result->Add("core.pass_ms." + p->query->name,
                env_->samples->Fastest(p->pass_span) * 1e3, "ms");
  }
  result->Add("core.pushes", static_cast<double>(pushes), "count");
  result->Add("core.predicate_checks", static_cast<double>(predicate_checks),
              "count");
  result->Add("core.candidate_unions", static_cast<double>(unions), "count");
  result->Add("obs.overhead_ms", (observed_s - plain_s) * 1e3, "ms");
}

std::string StreamTier::Engines() const {
  std::string out;
  for (const auto& p : passes_) {
    out += " " + p->query->name + "=" + p->engine;
  }
  return out;
}

}  // namespace perfbench
