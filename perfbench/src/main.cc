// perfbench: runs one named workload for a time budget and prints its
// metrics as the last line of standard output.
//
//   perfbench --workload book|protein|auction --seed N --seconds S
//             --trace 0|1 [--trace-out trace.json]
//   perfbench --selftest
//
// A workload is one corpus driven through every tier (tiers.h). The line
// before the result carries the build facts, so that results of different
// builds are never compared.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "harness.h"
#include "inputs.h"
#include "tiers.h"

namespace perfbench {

int RunSelfTest();

namespace {

constexpr size_t kCorpusBytes = size_t{2} << 20;
constexpr size_t kSubscriptions = 4096;

RunResult RunWorkload(const RunOptions& options, const Corpus& corpus) {
  Recorder rec(options.trace);
  Samples samples;
  OpLog ops;
  const Env env{&rec,
                &samples,
                &ops,
                &corpus,
                Chunks(corpus.bytes),
                CountStartTags(corpus.bytes)};
  XmlTier xml(&env);
  StreamTier stream(&env);
  SubscribeTier subscribe(&env, MakeSubscriptions(corpus, kSubscriptions));
  StoredTier stored(&env);

  ops.Record("first build", stored.BuildFirst());
  // The program's cold set-up, each part the first of its kind in the
  // process, timed once.
  std::string setup_error;
  const double setup_s = rec.Time("setup", [&] {
    Join(&setup_error, stream.Setup());
    Join(&setup_error, subscribe.Setup());
    Join(&setup_error, stored.Setup());
  });
  ops.Record("setup", setup_error);
  if (ops.failed() != 0 || !subscribe.PickSample(options.seed)) {
    return Stopped(ops);
  }

  const int rounds = RunRounds(&rec, options.seconds, 3, [&](int r) {
    xml.Round();
    stream.Round(r);
    subscribe.Round(r);
    stored.Round(r);
  });
  // Read before the output checks, so the DOM oracle's tree stays out.
  const double peak_rss_mb = PeakRssMb();

  // Round 0's results against the DOM oracle: the Fig. 6 queries (streamed
  // and stored) and the sampled subscriptions, on one parse of the corpus.
  std::vector<std::string> texts;
  for (const Query& q : corpus.queries) texts.push_back(q.text);
  for (const std::string& q : subscribe.SampleTexts()) texts.push_back(q);
  std::string oracle_error;
  const std::vector<Ids> want = DomOracle(corpus.bytes, texts, &oracle_error);
  ops.Record("DOM oracle", oracle_error);
  if (!oracle_error.empty()) return Stopped(ops);
  const size_t nq = corpus.queries.size();
  const std::vector<Ids> fig6(want.begin(), want.begin() + nq);
  stream.Check(fig6);
  stored.Check(fig6);
  subscribe.Check(std::vector<Ids>(want.begin() + nq, want.end()));

  RunResult result;
  if (!options.trace) {
    result.Add("setup_s", setup_s, "s");
    stream.Report(&result);
    subscribe.Report(&result);
    stored.Report(&result);
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    // The end-to-end figures of this traced run, under "traced.", give the
    // tracing overhead against an untraced run.
    RunResult e2e;
    stream.Report(&e2e);
    subscribe.Report(&e2e);
    stored.Report(&e2e);
    xml.Report(&result);
    stream.ReportLayers(xml.DriveSeconds(), &result);
    subscribe.ReportLayers(&result);
    stored.ReportLayers(&result);
    result.Add("traced.setup_s", setup_s, "s");
    for (const Metric& m : e2e.metrics) {
      if (m.name == "stream_mb_s" || m.name == "stream_observed_mb_s" ||
          m.name == "subscribe_mb_s" || m.name == "build_mb_s" ||
          m.name == "query_ms") {
        result.Add("traced." + m.name, m.value, m.unit);
      }
    }
    result.Add("traced.rounds", rounds, "count");
  }
  std::fprintf(stderr,
               "perfbench: %s: %d rounds; %zu sampled subscription ids "
               "checked against the DOM; engines:%s\n",
               corpus.name.c_str(), rounds, subscribe.checked_ids(),
               stream.Engines().c_str());

  result.attempted = ops.attempted();
  result.failed = ops.failed();
  FinishTrace(rec, options, &result);
  return result;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload book|protein|"
               "auction --seed N --seconds S --trace 0|1 [--trace-out PATH]\n"
               "       perfbench --selftest\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Usage;
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return perfbench::RunSelfTest();
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || options.seconds <= 0) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::Corpus corpus;
  if (!perfbench::MakeCorpus(options.workload, options.seed,
                             perfbench::kCorpusBytes, &corpus)) {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  perfbench::RunResult result = perfbench::RunWorkload(options, corpus);
  result.correct = result.correct && result.failed == 0;
  std::cout << perfbench::BuildFactsJson() << "\n"
            << perfbench::ResultJson(result) << std::endl;
  return 0;
}
