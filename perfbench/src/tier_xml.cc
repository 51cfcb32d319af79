// The XML layers under every tier: the structural scan of the whole
// buffer, the SAX parse of its chunks into a no-op handler, and the same
// parse through an EventDriver into a no-op sink.

#include <vector>

#include "tiers.h"
#include "xml/sax_parser.h"

namespace perfbench {
namespace {

class NullSink : public twigm::xml::StreamEventSink {
 public:
  void StartElement(const twigm::xml::TagToken&, int, twigm::xml::NodeId,
                    const std::vector<twigm::xml::Attribute>&) override {}
  void EndElement(const twigm::xml::TagToken&, int) override {}
};

}  // namespace

void XmlTier::Round() {
  Recorder* rec = env_->rec;
  Samples* samples = env_->samples;
  OpLog* ops = env_->ops;
  const std::string& bytes = env_->corpus->bytes;

  scan_index_.Clear();
  samples->Add("scan", rec->Time("scan", [&] {
    twigm::xml::ScanStructural(bytes, 0, bytes.size(), &scan_index_);
  }));
  ops->Record("scan", scan_index_.marks.empty() ? "no structural marks" : "");

  twigm::xml::SaxHandler noop;
  twigm::Status s;
  samples->Add("parse", rec->Time("parse", [&] {
    twigm::xml::SaxParser parser(&noop);
    s = Feed(&parser, env_->chunks);
  }));
  ops->Record("parse", s.ok() ? "" : s.ToString());

  NullSink null_sink;
  twigm::xml::EventDriver driver(&null_sink);
  samples->Add("drive", rec->Time("drive", [&] {
    twigm::xml::SaxParser parser(&driver);
    s = Feed(&parser, env_->chunks);
  }));
  ops->Record("drive", s.ok() ? CheckCount("driven elements", env_->start_tags,
                                           driver.element_count())
                              : s.ToString());
}

double XmlTier::DriveSeconds() const {
  return env_->samples->Fastest("drive");
}

void XmlTier::Report(RunResult* result) const {
  const double mb = static_cast<double>(env_->corpus->bytes.size()) / 1e6;
  result->Add("xml.scan_mb_s", mb / env_->samples->Fastest("scan"), "MB/s");
  result->Add("xml.parse_mb_s", mb / env_->samples->Fastest("parse"), "MB/s");
  result->Add("xml.drive_mb_s", mb / DriveSeconds(), "MB/s");
}

}  // namespace perfbench
