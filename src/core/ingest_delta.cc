#include "core/ingest_delta.h"

#include <utility>

namespace cobra::core {

IngestDelta IngestDelta::Interview(int64_t oid, std::string text) {
  IngestDelta out;
  out.kind = Kind::kInterview;
  out.interview_oid = oid;
  out.interview_text = std::move(text);
  return out;
}

IngestDelta IngestDelta::FinalizeText() {
  IngestDelta out;
  out.kind = Kind::kFinalizeText;
  return out;
}

IngestDelta IngestDelta::Video(
    VideoDescription desc, std::vector<vision::SignatureRecord> signatures) {
  IngestDelta out;
  out.kind = Kind::kVideo;
  out.video = std::move(desc);
  out.signatures = std::move(signatures);
  return out;
}

IngestDelta IngestDelta::Signatures(
    int64_t video_id, std::vector<vision::SignatureRecord> records) {
  IngestDelta out;
  out.kind = Kind::kSignatures;
  out.signature_video = video_id;
  out.signatures = std::move(records);
  return out;
}

int64_t IngestDelta::video_id() const {
  if (kind == Kind::kVideo) return video.video_id();
  if (kind == Kind::kSignatures) return signature_video;
  return -1;
}

}  // namespace cobra::core
