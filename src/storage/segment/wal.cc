#include "storage/segment/wal.h"

#include <cstring>
#include <utility>

#include "util/crc32.h"

namespace cobra::storage::segment {

using core::CobraLayer;
using core::IngestDelta;
using core::VideoDescription;
using grammar::Annotation;
using grammar::MetaValue;

namespace {

/// Frames one record ([u32 len][u32 crc][u8 type][payload]) onto `out` —
/// the encoding GroupCommitWal writes and ReplayWal reads.
void FrameRecord(WalRecordType type, const ByteWriter& payload,
                 ByteWriter* out) {
  out->PutU32(static_cast<uint32_t>(payload.size()));
  uint32_t crc = util::Crc32(&type, sizeof(uint8_t));
  crc = util::Crc32(payload.buffer().data(), payload.size(), crc);
  out->PutU32(crc);
  out->PutU8(static_cast<uint8_t>(type));
  out->PutRaw(payload.buffer().data(), payload.size());
}

ByteWriter FrameSignatures(
    int64_t video_id, const std::vector<vision::SignatureRecord>& records) {
  ByteWriter payload;
  payload.PutI64(video_id);
  payload.PutU64(records.size());
  payload.PutRaw(records.data(),
                 records.size() * sizeof(vision::SignatureRecord));
  ByteWriter frame;
  FrameRecord(WalRecordType::kAddSignatures, payload, &frame);
  return frame;
}

/// `delta`'s frames in file order: one per record, two for a kVideo delta
/// that carries signatures.
std::vector<ByteWriter> FrameDelta(const IngestDelta& delta) {
  std::vector<ByteWriter> frames(1);
  ByteWriter payload;
  switch (delta.kind) {
    case IngestDelta::Kind::kInterview:
      payload.PutI64(delta.interview_oid);
      payload.PutString(delta.interview_text);
      FrameRecord(WalRecordType::kAddInterview, payload, &frames[0]);
      break;
    case IngestDelta::Kind::kFinalizeText:
      FrameRecord(WalRecordType::kFinalizeText, payload, &frames[0]);
      break;
    case IngestDelta::Kind::kVideo:
      EncodeVideoDescription(delta.video, &payload);
      FrameRecord(WalRecordType::kAddVideo, payload, &frames[0]);
      if (!delta.signatures.empty()) {
        frames.push_back(
            FrameSignatures(delta.video.video_id(), delta.signatures));
      }
      break;
    case IngestDelta::Kind::kSignatures:
      frames[0] = FrameSignatures(delta.signature_video, delta.signatures);
      break;
  }
  return frames;
}

}  // namespace

Result<std::unique_ptr<GroupCommitWal>> GroupCommitWal::Open(
    const std::string& path) {
  std::unique_ptr<GroupCommitWal> out(new GroupCommitWal());
  COBRA_ASSIGN_OR_RETURN(out->file_, AppendFile::Open(path));
  return out;
}

Result<uint64_t> GroupCommitWal::Stage(const IngestDelta& delta) {
  const std::vector<ByteWriter> frames = FrameDelta(delta);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!io_error_.ok()) return io_error_;
  for (const ByteWriter& frame : frames) {
    staged_.insert(staged_.end(), frame.buffer().begin(),
                   frame.buffer().end());
    ++staged_seq_;
  }
  return staged_seq_;
}

Status GroupCommitWal::WaitDurable(uint64_t seq) {
  std::unique_lock<std::mutex> lock(mutex_);
  // No leader could ever cover a record that was never staged.
  if (seq > staged_seq_) {
    return Status::FailedPrecondition("WaitDurable on an unstaged record");
  }
  while (durable_seq_ < seq) {
    if (!io_error_.ok()) return io_error_;
    if (leader_active_) {
      // A leader is syncing an earlier group; our record rides in the
      // batch it (or a successor) picks up.
      group_cv_.wait(lock);
      continue;
    }
    // Become the leader: take everything staged so far as one group.
    leader_active_ = true;
    std::vector<uint8_t> batch;
    batch.swap(staged_);
    const uint64_t batch_seq = staged_seq_;
    lock.unlock();
    Status status = file_.Append(batch.data(), batch.size());
    if (status.ok()) {
      status = file_.Sync();
    }
    lock.lock();
    ++sync_calls_;
    leader_active_ = false;
    if (!status.ok()) {
      // Wake everyone with the sticky error — acknowledged records stay
      // acknowledged, but nothing behind the hole ever will be.
      io_error_ = status;
      group_cv_.notify_all();
      return status;
    }
    durable_seq_ = batch_seq;
    durable_bytes_ = file_.bytes_appended();
    group_cv_.notify_all();
  }
  return io_error_;
}

int64_t GroupCommitWal::durable_bytes() {
  std::lock_guard<std::mutex> lock(mutex_);
  return durable_bytes_;
}

int64_t GroupCommitWal::sync_calls() {
  std::lock_guard<std::mutex> lock(mutex_);
  return sync_calls_;
}

int64_t GroupCommitWal::records_committed() {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(durable_seq_);
}

void EncodeVideoDescription(const VideoDescription& desc, ByteWriter* out) {
  out->PutI64(desc.video_id());
  out->PutString(desc.title());
  out->PutDouble(desc.fps());
  out->PutI64(desc.num_frames());
  for (int layer = 0; layer < 4; ++layer) {
    const std::vector<Annotation>& annotations =
        desc.Layer(static_cast<CobraLayer>(layer));
    out->PutU32(static_cast<uint32_t>(annotations.size()));
    for (const Annotation& a : annotations) {
      out->PutString(a.symbol);
      out->PutI64(a.range.begin);
      out->PutI64(a.range.end);
      out->PutU32(static_cast<uint32_t>(a.attrs.size()));
      for (const auto& [key, value] : a.attrs) {
        out->PutString(key);
        if (const auto* i = std::get_if<int64_t>(&value)) {
          out->PutU8(0);
          out->PutI64(*i);
        } else if (const auto* d = std::get_if<double>(&value)) {
          out->PutU8(1);
          out->PutDouble(*d);
        } else {
          out->PutU8(2);
          out->PutString(std::get<std::string>(value));
        }
      }
    }
  }
}

Result<VideoDescription> DecodeVideoDescription(ByteReader* in) {
  int64_t video_id = 0, num_frames = 0;
  std::string title;
  double fps = 0.0;
  if (!in->GetI64(&video_id) || !in->GetString(&title) ||
      !in->GetDouble(&fps) || !in->GetI64(&num_frames)) {
    return Status::InvalidArgument("corrupt video description header");
  }
  VideoDescription desc(video_id, std::move(title), fps, num_frames);
  for (int layer = 0; layer < 4; ++layer) {
    uint32_t count = 0;
    if (!in->GetU32(&count) || count > in->remaining()) {
      return Status::InvalidArgument("corrupt annotation count");
    }
    for (uint32_t i = 0; i < count; ++i) {
      Annotation a;
      if (!in->GetString(&a.symbol) || !in->GetI64(&a.range.begin) ||
          !in->GetI64(&a.range.end)) {
        return Status::InvalidArgument("corrupt annotation");
      }
      uint32_t num_attrs = 0;
      if (!in->GetU32(&num_attrs) || num_attrs > in->remaining()) {
        return Status::InvalidArgument("corrupt attribute count");
      }
      for (uint32_t k = 0; k < num_attrs; ++k) {
        std::string key;
        uint8_t tag = 0;
        if (!in->GetString(&key) || !in->GetU8(&tag)) {
          return Status::InvalidArgument("corrupt attribute");
        }
        MetaValue value;
        if (tag == 0) {
          int64_t v;
          if (!in->GetI64(&v)) {
            return Status::InvalidArgument("corrupt int attribute");
          }
          value = v;
        } else if (tag == 1) {
          double v;
          if (!in->GetDouble(&v)) {
            return Status::InvalidArgument("corrupt double attribute");
          }
          value = v;
        } else if (tag == 2) {
          std::string v;
          if (!in->GetString(&v)) {
            return Status::InvalidArgument("corrupt string attribute");
          }
          value = std::move(v);
        } else {
          return Status::InvalidArgument("unknown attribute type tag");
        }
        a.attrs.emplace(std::move(key), std::move(value));
      }
      desc.Add(static_cast<CobraLayer>(layer), std::move(a));
    }
  }
  return desc;
}

Result<std::vector<IngestDelta>> ReplayWal(const std::string& path) {
  std::vector<IngestDelta> out;
  if (!FileExists(path)) return out;
  COBRA_ASSIGN_OR_RETURN(MmapFile map, MmapFile::Open(path));
  size_t pos = 0;
  while (true) {
    // Frame header: u32 len, u32 crc, u8 type. Anything short is a torn
    // tail — stop, keep what replayed so far.
    if (map.size() - pos < 9) break;
    uint32_t len = 0, crc = 0;
    std::memcpy(&len, map.data() + pos, 4);
    std::memcpy(&crc, map.data() + pos + 4, 4);
    const uint8_t type_byte = map.data()[pos + 8];
    if (len > map.size() - pos - 9) break;  // truncated payload
    uint32_t actual = util::Crc32(&type_byte, 1);
    actual = util::Crc32(map.data() + pos + 9, len, actual);
    if (actual != crc) break;  // torn or corrupt frame
    ByteReader payload(map.data() + pos + 9, len);
    IngestDelta delta;
    bool parsed = true;
    switch (type_byte) {
      case static_cast<uint8_t>(WalRecordType::kAddInterview):
        delta.kind = IngestDelta::Kind::kInterview;
        parsed = payload.GetI64(&delta.interview_oid) &&
                 payload.GetString(&delta.interview_text);
        break;
      case static_cast<uint8_t>(WalRecordType::kFinalizeText):
        delta.kind = IngestDelta::Kind::kFinalizeText;
        break;
      case static_cast<uint8_t>(WalRecordType::kAddVideo): {
        delta.kind = IngestDelta::Kind::kVideo;
        Result<VideoDescription> video = DecodeVideoDescription(&payload);
        if (video.ok()) {
          delta.video = video.TakeValue();
        } else {
          parsed = false;
        }
        break;
      }
      case static_cast<uint8_t>(WalRecordType::kAddSignatures): {
        delta.kind = IngestDelta::Kind::kSignatures;
        uint64_t count = 0;
        parsed = payload.GetI64(&delta.signature_video) &&
                 payload.GetU64(&count) &&
                 count <= payload.remaining() /
                              sizeof(vision::SignatureRecord);
        if (parsed) {
          delta.signatures.resize(count);
          parsed = payload.GetRaw(
              delta.signatures.data(),
              count * sizeof(vision::SignatureRecord));
        }
        break;
      }
      default:
        parsed = false;
    }
    if (!parsed) break;  // checksum passed but payload malformed: stop here
    out.push_back(std::move(delta));
    pos += 9 + len;
  }
  return out;
}

}  // namespace cobra::storage::segment
