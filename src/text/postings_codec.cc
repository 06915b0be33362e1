#include "text/postings_codec.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/strings.h"

namespace cobra::text {

namespace {

constexpr double kWeightScale = 1024.0;

void PutVarint(uint64_t value, std::vector<uint8_t>* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

bool GetVarint(const uint8_t* in, size_t size, size_t* pos, uint64_t* value) {
  uint64_t v = 0;
  int shift = 0;
  while (*pos < size && shift <= 63) {
    uint8_t byte = in[(*pos)++];
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if (!(byte & 0x80)) {
      *value = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

}  // namespace

Result<CompressedPostings> CompressedPostings::Encode(
    const std::vector<DecodedPosting>& postings) {
  CompressedPostings out;
  int64_t last = -1;
  for (size_t i = 0; i < postings.size(); ++i) {
    const DecodedPosting& p = postings[i];
    if (p.doc_id <= last) {
      return Status::InvalidArgument(
          "postings must have strictly increasing doc ids");
    }
    if (p.weight < 0) {
      return Status::InvalidArgument("weights must be non-negative");
    }
    if (i % kBlockSize == 0) {
      SkipBlock block;
      block.byte_offset = out.bytes_.size();
      block.prev_doc = last;
      out.blocks_.push_back(block);
    }
    uint64_t delta = static_cast<uint64_t>(p.doc_id - last);
    PutVarint(delta, &out.bytes_);
    uint64_t quantized =
        static_cast<uint64_t>(std::llround(p.weight * kWeightScale));
    PutVarint(quantized, &out.bytes_);
    // Block metadata tracks the *decoded* weight so cursor-side bounds are
    // exact for what the cursor will actually yield.
    double decoded = static_cast<double>(quantized) / kWeightScale;
    SkipBlock& block = out.blocks_.back();
    block.last_doc = p.doc_id;
    block.max_weight = std::max(block.max_weight, decoded);
    out.max_weight_ = std::max(out.max_weight_, decoded);
    last = p.doc_id;
  }
  out.count_ = postings.size();
  return out;
}

CompressedPostings CompressedPostings::FromRaw(std::vector<uint8_t> bytes,
                                               std::vector<SkipBlock> blocks,
                                               size_t count,
                                               double max_weight) {
  CompressedPostings out;
  out.bytes_ = std::move(bytes);
  out.blocks_ = std::move(blocks);
  out.count_ = count;
  out.max_weight_ = max_weight;
  return out;
}

std::vector<DecodedPosting> CompressedPostings::Decode() const {
  std::vector<DecodedPosting> out;
  out.reserve(count_);
  Cursor cursor(*this);
  DecodedPosting posting;
  while (cursor.Next(&posting)) out.push_back(posting);
  return out;
}

void CompressedPostings::Cursor::MarkCorrupt() {
  corrupt_ = true;
  index_ = postings_->count_;  // exhaust: every later call returns false
}

bool CompressedPostings::Cursor::Next(DecodedPosting* out) {
  // Mirrors the encoder's `last = -1` origin so doc id 0 round-trips.
  if (index_ >= postings_->count_) return false;
  uint64_t delta, weight;
  if (!GetVarint(postings_->data(), postings_->SizeBytes(), &pos_, &delta) ||
      !GetVarint(postings_->data(), postings_->SizeBytes(), &pos_, &weight)) {
    MarkCorrupt();
    return false;
  }
  // The encoder writes strictly increasing doc ids, so every delta is >= 1
  // (the first posting's delta is doc_id - (-1) >= 1). A zero delta, or
  // one that would push the doc id past int64 range, can only come from
  // mutated bytes.
  uint64_t max_delta =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max() -
                            (last_doc_ + 1)) +
      1;
  if (delta == 0 || delta > max_delta) {
    MarkCorrupt();
    return false;
  }
  last_doc_ += static_cast<int64_t>(delta);
  out->doc_id = last_doc_;
  out->weight = static_cast<double>(weight) / kWeightScale;
  ++index_;
  ++decoded_;
  return true;
}

bool CompressedPostings::Cursor::SeekBlock(int64_t doc_id) {
  if (corrupt_ || index_ >= postings_->count_) return false;
  size_t b = index_ / kBlockSize;
  const std::vector<SkipBlock>& blocks = postings_->blocks_;
  size_t target = b;
  while (target < blocks.size() && blocks[target].last_doc < doc_id) ++target;
  if (target >= blocks.size()) {
    index_ = postings_->count_;  // exhausted; bytes untouched, still ok()
    return false;
  }
  if (target != b) {
    blocks_skipped_ += static_cast<int64_t>(target - b);
    pos_ = blocks[target].byte_offset;
    last_doc_ = blocks[target].prev_doc;
    index_ = target * kBlockSize;
  }
  return true;
}

bool CompressedPostings::Cursor::SkipTo(int64_t doc_id, DecodedPosting* out) {
  if (!SeekBlock(doc_id)) return false;
  while (Next(out)) {
    if (out->doc_id >= doc_id) return true;
  }
  return false;
}

double CompressedPostings::Cursor::block_max() const {
  size_t b = index_ / kBlockSize;
  return b < postings_->blocks_.size() ? postings_->blocks_[b].max_weight : 0.0;
}

}  // namespace cobra::text
