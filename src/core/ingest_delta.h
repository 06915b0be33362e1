#pragma once

/// \file ingest_delta.h
/// The one representation of a library mutation (DESIGN.md §4h, §4k). The
/// ingest pipeline produces deltas, engine::DigitalLibrary::Apply applies
/// them, the durable layer frames them into its write-ahead log, and WAL
/// replay hands the same type back. It lives in core, beside the video
/// description it carries, so the segment layer can frame it.

#include <cstdint>
#include <string>
#include <vector>

#include "core/video_description.h"
#include "vision/signature.h"

namespace cobra::core {

/// One unit of corpus growth. A kVideo delta carries a description and its
/// (possibly empty) signature batch together, so the video becomes
/// queryable and similarity-searchable atomically; kSignatures is a batch
/// on its own (a replayed signature frame, or the shard builders'
/// signature pass). Fields not used by the kind stay default.
struct IngestDelta {
  enum class Kind : uint8_t { kInterview, kFinalizeText, kVideo, kSignatures };
  Kind kind = Kind::kVideo;
  int64_t interview_oid = 0;
  std::string interview_text;
  VideoDescription video;
  /// The video a kSignatures batch belongs to.
  int64_t signature_video = -1;
  std::vector<vision::SignatureRecord> signatures;

  static IngestDelta Interview(int64_t oid, std::string text);
  static IngestDelta FinalizeText();
  static IngestDelta Video(VideoDescription desc,
                           std::vector<vision::SignatureRecord> signatures);
  static IngestDelta Signatures(int64_t video_id,
                                std::vector<vision::SignatureRecord> records);

  /// The video a kVideo or kSignatures delta grows (-1 for the other
  /// kinds).
  int64_t video_id() const;
};

}  // namespace cobra::core
