#include "xmlgen/synthetic_generator.h"

#include "common/strings.h"

namespace lazyxml {

namespace {
constexpr char kLoremChars[] =
    "abcdefghijklmnopqrstuvwxyz    ";
constexpr size_t kLoremLen = sizeof(kLoremChars) - 1;
}  // namespace

SyntheticGenerator::SyntheticGenerator(SyntheticConfig config)
    : config_(std::move(config)), rng_(config_.seed) {}

std::string SyntheticGenerator::PickTag() {
  uint64_t idx;
  if (config_.tag_skew > 0.0) {
    idx = rng_.Zipf(config_.num_tags, config_.tag_skew);
  } else {
    idx = rng_.Uniform(config_.num_tags);
  }
  return StringPrintf("t%llu", static_cast<unsigned long long>(idx));
}

void SyntheticGenerator::EmitText(std::string* out) {
  const uint32_t len = static_cast<uint32_t>(rng_.UniformRange(
      config_.min_text_len, config_.max_text_len));
  for (uint32_t i = 0; i < len; ++i) {
    out->push_back(kLoremChars[rng_.Uniform(kLoremLen)]);
  }
}

void SyntheticGenerator::EmitElement(std::string* out, uint32_t depth,
                                     uint64_t* remaining) {
  if (*remaining == 0) return;
  const std::string tag = PickTag();
  --*remaining;
  out->append("<").append(tag).append(">");
  if (rng_.Bernoulli(config_.text_probability)) EmitText(out);
  if (depth < config_.max_depth) {
    const uint32_t fanout = static_cast<uint32_t>(rng_.UniformRange(
        config_.min_fanout, config_.max_fanout));
    for (uint32_t i = 0; i < fanout && *remaining > 0; ++i) {
      EmitElement(out, depth + 1, remaining);
    }
  }
  out->append("</").append(tag).append(">");
}

void SyntheticGenerator::EmitSpine(std::string* out, uint32_t levels) {
  if (levels == 0) return;
  out->append("<spine>");
  // A little flesh on each vertebra so spine segments are not empty.
  uint64_t one = 1;
  EmitElement(out, config_.max_depth, &one);  // depth-capped: one leaf
  EmitSpine(out, levels - 1);
  out->append("</spine>");
}

Result<std::string> SyntheticGenerator::Generate() {
  if (config_.target_elements < 1) {
    return Status::InvalidArgument("target_elements must be >= 1");
  }
  if (config_.num_tags < 1) {
    return Status::InvalidArgument("num_tags must be >= 1");
  }
  if (config_.max_depth < 1) {
    return Status::InvalidArgument("max_depth must be >= 1");
  }
  if (config_.min_fanout > config_.max_fanout) {
    return Status::InvalidArgument("min_fanout > max_fanout");
  }
  if (config_.min_text_len > config_.max_text_len) {
    return Status::InvalidArgument("min_text_len > max_text_len");
  }
  std::string out;
  // Rough size reservation: ~24 bytes of markup + text per element.
  out.reserve(config_.target_elements * 24 + config_.spine_depth * 32);
  out.append("<").append(config_.root_tag).append(">");
  if (config_.spine_depth > 0) EmitSpine(&out, config_.spine_depth);
  uint64_t remaining = config_.target_elements;
  // The root itself counts as one element.
  if (remaining > 0) --remaining;
  while (remaining > 0) {
    const uint64_t before = remaining;
    EmitElement(&out, 1, &remaining);
    if (remaining == before) break;  // Defensive: guarantee progress.
  }
  out.append("</").append(config_.root_tag).append(">");
  return out;
}

}  // namespace lazyxml
