#include "io/shard_identity.h"

namespace ccd {
namespace io {

namespace {

std::string DescribeComponent(const std::string& name,
                              const std::string& params) {
  if (name.empty()) return "(none)";
  return "'" + name + "'" + (params.empty() ? "" : " {" + params + "}");
}

}  // namespace

std::optional<std::string> ForeignImageReason(const ShardIdentity& image,
                                              const ShardIdentity& own) {
  if (image.schema.num_features != own.schema.num_features ||
      image.schema.num_classes != own.schema.num_classes) {
    return "schema (" + std::to_string(image.schema.num_features) +
           " features, " + std::to_string(image.schema.num_classes) +
           " classes) does not match the fleet's (" +
           std::to_string(own.schema.num_features) + ", " +
           std::to_string(own.schema.num_classes) + ")";
  }
  if (image.classifier != own.classifier ||
      image.classifier_params != own.classifier_params) {
    return "classifier " +
           DescribeComponent(image.classifier, image.classifier_params) +
           " does not match the fleet's " +
           DescribeComponent(own.classifier, own.classifier_params);
  }
  if (image.detector != own.detector ||
      image.detector_params != own.detector_params) {
    return "detector " +
           DescribeComponent(image.detector, image.detector_params) +
           " does not match the fleet's " +
           DescribeComponent(own.detector, own.detector_params);
  }
  if (image.config != own.config) {
    return "PrequentialConfig does not match the fleet's";
  }
  return std::nullopt;
}

}  // namespace io
}  // namespace ccd
